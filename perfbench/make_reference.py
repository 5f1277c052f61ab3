"""Make the reference values the benchmark checks CLI output against.

    python3 perfbench/make_reference.py     # writes perfbench/reference.json

Nothing here imports cubicprimes. Primality and perfect powers come from
sympy, cubic residuacity from sympy's nth-power residue test, high
precision from mpmath, and sieves, Mobius values and lattice counts from
the numpy code below. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np
from sympy import integer_nthroot, isprime, perfect_power
from sympy.ntheory.residue_ntheory import is_nthpow_residue

import workloads as W

OUT = Path(__file__).resolve().parent / "reference.json"


def sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def mobius_table(limit: int, primes: np.ndarray) -> np.ndarray:
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes[primes <= limit].tolist():
        mu[::p] *= -1
        if p * p <= limit:
            mu[:: p * p] = 0
    return mu


def decade_checkpoints(x_max: int) -> list[int]:
    """10, 100, ... below x_max, then x_max: the rows dset and dseries print."""
    out, p = [], 10
    while p < x_max:
        out.append(p)
        p *= 10
    return out + [x_max]


def first_n(k: int, w: int) -> int:
    """Smallest n with n^3 + k >= w."""
    n = -(integer_nthroot(abs(k), 3)[0] + 2)
    while n**3 + k < w:
        n += 1
    return n


def count_primes(k: int) -> dict[str, int]:
    """Primes n^3 + k <= x at each count checkpoint, by sympy.isprime over n."""
    out, found, n = {}, 0, first_n(k, 2)
    for x in W.COUNT_CHECKPOINTS:
        while n**3 + k <= x:
            found += isprime(n**3 + k)
            n += 1
        out[str(x)] = found
    return out


def singular_series(k: int) -> float:
    """Product over primes p = 1 mod 3 up to the cutoff, p not dividing k,
    of 1 - 2 chi / (p - 1), chi = 1 when -k is a cube mod p, else -1/2."""
    mpmath.mp.dps = 40
    prod = mpmath.mpf(1)
    for p in sieve(W.COUNT_PMAX).tolist():
        if p % 3 != 1 or k % p == 0:
            continue
        chi = 1 if is_nthpow_residue((-k) % p, 3, p) else mpmath.mpf(-1) / 2
        prod *= 1 - 2 * chi / mpmath.mpf(p - 1)
    return float(prod)


def lambda_sum(k: int, x: int) -> dict[str, float]:
    """Sum of n * Lambda(n^3 + k) over 2 <= n^3 + k <= x, and its part at
    proper prime powers, with sympy's isprime and perfect_power."""
    total, tail = [], []
    n = first_n(k, 2)
    while n**3 + k <= x:
        v = n**3 + k
        base, e = (v, 1) if isprime(v) else (perfect_power(v) or (0, 0))
        if e and isprime(base):
            total.append(n * math.log(base))
            if e >= 2:
                tail.append(n * math.log(base))
        n += 1
    return {"value": math.fsum(total), "tail": math.fsum(tail)}


def prime_power_tail(k: int, primes: np.ndarray) -> dict[str, float]:
    """Sum of n log p over n >= 1 with n^3 + k = p^e <= x, e >= 2, found by
    enumerating prime powers p^e and testing whether p^e - k is a cube."""
    x_max = max(W.TAIL_CHECKPOINTS)
    hits = []
    p = primes[primes <= math.isqrt(x_max)].astype(np.int64)
    t = p * p - k
    n = np.rint(np.cbrt(t.astype(np.float64))).astype(np.int64)
    for i in np.flatnonzero((t >= 1) & (n**3 == t)).tolist():
        hits.append((int(p[i]) ** 2, int(n[i]), int(p[i])))
    for e in range(3, x_max.bit_length()):
        for q in primes[primes <= integer_nthroot(x_max, e)[0]].tolist():
            root, exact = integer_nthroot(max(q**e - k, 0), 3)
            if exact and root >= 1 and q**e <= x_max:
                hits.append((q**e, root, q))
    return {str(x): math.fsum(n * math.log(q) for v, n, q in hits if v <= x)
            for x in W.TAIL_CHECKPOINTS}


def solvable_x3_plus_2(limit: int, primes: np.ndarray) -> np.ndarray:
    """d <= limit with x^3 + 2 = 0 mod d solvable: 4 and 9 do not divide d,
    and 2 is a cube mod every prime p = 1 mod 3 dividing d."""
    ok = np.ones(limit + 1, dtype=bool)
    ok[0] = False
    ok[4::4] = False
    ok[9::9] = False
    for p in primes[(primes % 3 == 1) & (primes <= limit)].tolist():
        if not is_nthpow_residue(2, 3, p):
            ok[p::p] = False
    return ok


def bruteforce_check(ok: np.ndarray, seed: int = 1) -> int:
    """Compare the characterisation with a scan of x mod d for every d up
    to 2000 and a seeded sample of larger d; returns how many d agreed."""
    rng = random.Random(seed)
    sample = list(range(1, 2001)) + [rng.randint(2001, len(ok) - 1) for _ in range(40)]
    for d in sample:
        x = np.arange(d, dtype=np.int64)
        solvable = bool(np.any((x * x % d) * x % d == (-2) % d))
        if solvable != bool(ok[d]):
            raise SystemExit(f"local characterisation wrong at d = {d}")
    return len(sample)


def lattice_counts(form: tuple[int, int, int], limit: int) -> np.ndarray:
    """r(n) for n <= limit and the form u^2 + c v^2, counting each point
    with u, v >= 0 once per sign pattern."""
    a, b, c = form
    if (a, b) != (1, 0):
        raise SystemExit("lattice_counts handles u^2 + c v^2 only")
    vals, mult = [], []
    for v in range(math.isqrt(limit // c) + 1):
        u = np.arange(math.isqrt(limit - c * v * v) + 1, dtype=np.int64)
        vals.append(u * u + c * v * v)
        mult.append(np.where(u == 0, 1, 2) * (1 if v == 0 else 2))
    r = np.bincount(np.concatenate(vals), weights=np.concatenate(mult), minlength=limit + 1)
    r[0] = 0
    return r.astype(np.int64)


def main() -> None:
    x = W.DSET_X
    primes = sieve(max(W.EPSTEIN_X, math.isqrt(max(W.TAIL_CHECKPOINTS))))
    ref: dict = {"count_pmax": W.COUNT_PMAX, "dset_x": str(x)}
    ref["count"] = {str(k): count_primes(k) for k in W.SEED_K}
    ref["singular_series"] = {str(k): singular_series(k) for k in W.SEED_K}
    ref["chebyshev"] = {str(k): {str(W.CHEBYSHEV_X): lambda_sum(k, W.CHEBYSHEV_X)}
                        for k in W.SEED_K}
    ref["tail"] = {str(-k): prime_power_tail(-k, primes) for k in W.SEED_K}

    ok = solvable_x3_plus_2(x, primes)
    ref["dset_bruteforce_agreed"] = bruteforce_check(ok)
    cps = decade_checkpoints(x)
    members = np.cumsum(ok)
    ref["dset"] = {str(c): int(members[c]) for c in cps}

    mu = mobius_table(W.EPSTEIN_X, primes)
    d = np.flatnonzero(ok & (mu[: x + 1] != 0))
    terms = mu[d] * np.log(d) / d
    ref["dseries"] = {
        str(c): {"value": math.fsum(terms[d <= c].tolist()), "terms_used": int(np.sum(d <= c))}
        for c in cps}

    r = lattice_counts(W.EPSTEIN_FORM, W.EPSTEIN_X)
    n = np.flatnonzero((r != 0) & (mu != 0))
    ref["epstein"] = {
        "form": ",".join(map(str, W.EPSTEIN_FORM)), "x": str(W.EPSTEIN_X), "s": "1",
        "value": math.fsum((mu[n] * r[n] / n).tolist())}

    OUT.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
