"""The set of moduli d for which x^3 + k = 0 mod d is solvable.

Membership is decided by true solvability: factor d, get the roots of
x^3 + k modulo each prime, lift them power by power, and combine by the
Chinese remainder principle (solvable mod d iff solvable mod every
prime-power part). Lifting from p^j to p^(j+1) uses the exact expansion
f(r + t*p^j) = f(r) + 3r^2*t*p^j (mod p^(j+1)) of f(x) = x^3 + k, valid for
j >= 1, which keeps this route structurally independent of the linear-scan
oracle rho_bruteforce that the tests compare it against.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import _multiples, factorize, primes_up_to
from .errors import DomainError, ResourceError
from .residues import _rho_primes, roots_mod

ENUMERATION_LIMIT = 10**7
_ROOT_SET_CAP = 10**6


def _lift_once(k: int, roots: list[int], p: int, j: int) -> list[int]:
    """Roots of x^3 + k mod p^(j+1) from the roots mod p^j, j >= 1."""
    pj = p**j
    mod_next = pj * p
    out = []
    for r in roots:
        a = (r**3 + k) // pj % p
        b = 3 * r * r % p
        if b != 0:
            t = (-a * pow(b, -1, p)) % p
            out.append(r + t * pj)
        elif a == 0:
            out.extend(r + t * pj for t in range(p))
            if len(out) > _ROOT_SET_CAP:
                raise ResourceError(f"root set mod {mod_next} exceeded {_ROOT_SET_CAP} entries")
    return out


def _roots_mod_prime_power(k: int, p: int, e: int) -> list[int]:
    roots = roots_mod(k, p)
    for j in range(1, e):
        if not roots:
            return []
        roots = _lift_once(k, roots, p, j)
    return sorted(roots)


def in_dset(k: int, d: int) -> bool:
    """True iff x^3 + k = 0 mod d has a solution."""
    if d < 1:
        raise DomainError(f"modulus {d} must be >= 1")
    if d == 1:
        return True
    for p, e in factorize(d).factors:
        if not _roots_mod_prime_power(k, p, e):
            return False
    return True


def enumerate_dset(k: int, limit: int) -> np.ndarray:
    """Ascending int64 array of every modulus d <= limit with x^3 + k
    solvable mod d.

    A modulus survives iff each of its prime-power parts is solvable. The
    multiples of every rootless prime (by the root count rule of
    _rho_primes) are struck. A root mod p with p not dividing 3k is simple
    (3r^2 != 0 mod p), so by Hensel's lemma it lifts to every p^e; at each
    p | 3k with p^2 <= limit the roots are lifted, and the multiples of the
    first p^e with none are struck.
    """
    _check_limit(limit)
    return _solvable_moduli(k, limit, primes_up_to(limit))


def _check_limit(limit: int) -> None:
    """Refuse an enumeration limit outside [1, ENUMERATION_LIMIT]."""
    if limit < 1:
        raise DomainError(f"limit {limit} must be >= 1")
    if limit > ENUMERATION_LIMIT:
        raise ResourceError(f"limit {limit} exceeds enumeration budget {ENUMERATION_LIMIT}")


def _solvable_moduli(k: int, limit: int, primes: np.ndarray) -> np.ndarray:
    """enumerate_dset on a checked limit, given ascending primes that hold
    every prime up to limit (a larger one strikes nothing), so that a
    caller that also sieves Mobius values up to limit sieves its primes
    once."""
    ok = np.ones(limit + 1, dtype=bool)
    ok[0] = False
    split = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    for p in primes[:split].tolist():
        if 3 * k % p:
            continue
        roots, q, j = roots_mod(k, p), p * p, 1
        while q <= limit:
            roots = _lift_once(k, roots, p, j)
            if not roots:
                ok[q::q] = False
                break
            q, j = q * p, j + 1
    for at, _ in _multiples(primes[_rho_primes(k, primes) == 0], limit):
        ok[at] = False
    return np.flatnonzero(ok)


def _check_checkpoints(checkpoints: list[int]) -> int:
    """Refuse a checkpoint list that is empty, descends or starts below 1,
    or that ends past the enumeration budget; return its last entry, the
    limit to enumerate to."""
    if not checkpoints or sorted(checkpoints) != list(checkpoints):
        raise DomainError("checkpoints must be nonempty and ascending")
    if checkpoints[0] < 1:
        raise DomainError(f"x = {checkpoints[0]} is below 1")
    _check_limit(checkpoints[-1])
    return checkpoints[-1]


def dset_density(k: int, checkpoints: list[int]) -> list[tuple[int, int, float]]:
    """(x, members, members / x) at each checkpoint x, where members
    counts the solvable moduli up to x, from one enumeration up to the
    last checkpoint."""
    members = enumerate_dset(k, _check_checkpoints(checkpoints))
    counts = np.searchsorted(members, checkpoints, side="right").tolist()
    return [(x, cnt, cnt / x) for x, cnt in zip(checkpoints, counts)]
