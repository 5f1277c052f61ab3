"""Partial sums of the Dirichlet series over solvable moduli, and partial
Epstein zeta values for positive definite binary quadratic forms.

Both families of sums are accumulated in a fixed ascending order, so a
given call is bit-for-bit reproducible and chunked re-evaluation agrees
with the one-shot value to float associativity (tested at 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _mobius, primes_up_to, sieve_range
from .dset import _check_checkpoints, _solvable_moduli
from .errors import CapacityError, DomainError, ResourceError
from .residues import QuadraticForm

EPSTEIN_BUDGET = 10**7
_NONZERO_BLOCK = 1 << 16  # counts scanned per bool mask in epstein_mu_sum


@dataclass(frozen=True)
class PartialSumRecord:
    """Partial-sum value at checkpoint x; terms_used counts the summands
    with a nonzero Mobius factor (the only ones that contribute)."""

    x: int
    value: float
    terms_used: int


def dirichlet_partial_sum(k: int, s: float, checkpoints: list[int]) -> list[PartialSumRecord]:
    """Partial sums of mu(n) log(n) / n^s over the moduli n at which
    x^3 + k is solvable, up to each of the ascending checkpoints.

    The sum is a single ascending left-to-right accumulation up to the
    last checkpoint, so a checkpoint value never depends on what lies
    beyond it.
    """
    if not math.isfinite(s):
        raise DomainError(f"s = {s} is not finite")
    if s < 1:
        raise DomainError(f"s = {s} below 1")
    x = _check_checkpoints(checkpoints)
    # the moduli are enumerated before the 1 B per entry Mobius table exists
    primes = primes_up_to(x)
    members = _solvable_moduli(k, x, primes)
    mu = _mobius(primes, x)[members]
    del primes
    keep = mu != 0
    members = members[keep]
    mu = mu[keep]
    # the terms mu * log(n) / n^s built in place (log n in one float buffer,
    # n^s in the other): the same ufuncs in the same order, so the same bits
    vals = members.astype(np.float64)
    running = np.log(vals)
    running *= mu
    with np.errstate(over="ignore"):  # n^s = inf makes the term 0, as it should
        vals **= s
    running /= vals
    np.cumsum(running, out=running)
    out = []
    for cp in checkpoints:
        idx = int(np.searchsorted(members, cp, side="right"))
        value = float(running[idx - 1]) if idx > 0 else 0.0
        out.append(PartialSumRecord(x=cp, value=value, terms_used=idx))
    return out


def epstein_r(form: QuadraticForm, n: int) -> int:
    """Number of integer pairs (u, v) with form(u, v) = n, solved per-n
    from the quadratic in u; the independent check against the lattice
    sweep used by the partial sums."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return sum(1 for _ in form.ellipse_points(n))


def _ymax(form: QuadraticForm, n_max: int) -> int:
    """The largest |y| of a lattice point with form value <= n_max: from
    4a form(u, y) = (2au + by)^2 + |disc| y^2.

    Every sweep calls it before it forms a row, and it refuses a sweep
    whose int64 rows could overflow. A row's |u|, margins included, is at
    most umax = (|b| ymax + sqrt(4a n_max)) / 2a + 2, so no product or
    partial sum of a u^2 + b u y + c y^2 passes
    a umax^2 + |b| umax max(ymax, 1) + c ymax^2.
    """
    a, b, c = form.a, abs(form.b), form.c
    ymax = math.isqrt(4 * a * n_max // -form.discriminant)
    umax = (b * ymax + math.isqrt(4 * a * n_max)) // (2 * a) + 2
    if a * umax * umax + b * umax * max(ymax, 1) + c * ymax * ymax >= 2**63:
        raise CapacityError(f"form {form} up to {n_max}: lattice row values could pass int64")
    return ymax


def _sweep_ymax(form: QuadraticForm, n_max: int) -> int:
    """_ymax for a lattice sweep up to n_max, after the checks that refuse
    it: n_max below 1 or above EPSTEIN_BUDGET, or rows past int64."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if n_max > EPSTEIN_BUDGET:
        raise ResourceError(f"n_max {n_max} exceeds budget {EPSTEIN_BUDGET}")
    return _ymax(form, n_max)


def _lattice_row(form: QuadraticForm, n_max: int, y: int) -> np.ndarray:
    """The exact form values 1 <= form(u, y) <= n_max on lattice row y, in
    ascending u. As form(-u, -y) = form(u, y), row -y holds the same
    values as row y."""
    a, b, c = form.a, form.b, form.c
    t = math.isqrt(max(4 * a * n_max + form.discriminant * y * y, 0))
    xlo = (-b * y - t) // (2 * a) - 1
    xhi = (-b * y + t) // (2 * a) + 1
    xs = np.arange(xlo, xhi + 1, dtype=np.int64)
    q = a * xs * xs + b * xs * y + c * y * y
    return q[(q >= 1) & (q <= n_max)]


def epstein_zeta_partial(form: QuadraticForm, s: float, n_max: int) -> float:
    """sum over nonzero lattice points with form value <= n_max of
    value^(-s), by direct double sum over the ellipse (never by per-n
    recounting). Requires finite s > 1."""
    if not math.isfinite(s):
        raise DomainError(f"s = {s} is not finite")
    if s <= 1:
        raise DomainError(f"s = {s} must exceed 1 for the lattice sum")
    total = 0.0
    ymax = _sweep_ymax(form, n_max)
    for y in range(-ymax, ymax + 1):
        q = _lattice_row(form, n_max, y)
        if q.size:
            total += float(np.power(q.astype(np.float64), -s).sum())
    return total


def representation_counts(form: QuadraticForm, n_max: int) -> np.ndarray:
    """r(n) for all n <= n_max in one lattice sweep; index 0 unused.

    The sweep walks the ymax + 1 rows y >= 0. Row -y holds the same values
    as row y, so row 0 adds 1 to each of its values and every other row
    adds 2, in the counts' dtype (a plain Python int takes np.add.at off its
    fast path). Each of the 2 ymax + 1 rows meets a given n at most twice
    (form(u, y) = n is a quadratic in u), so r(n) <= 4 ymax + 2: 2,434 for
    (1, 0, 27) at the 10^7 budget. The counts are int16, 2 B per entry,
    unless that bound passes 32,767; then they are int32, which holds the
    bound of any sweep short of 5 * 10^8 rows.
    """
    ymax = _sweep_ymax(form, n_max)
    dtype = np.int16 if 4 * ymax + 2 <= np.iinfo(np.int16).max else np.int32
    counts = np.zeros(n_max + 1, dtype=dtype)
    for y in range(ymax + 1):
        np.add.at(counts, _lattice_row(form, n_max, y), dtype(2 if y else 1))
    return counts


def epstein_mu_sum(form: QuadraticForm, s: float, n_max: int) -> float:
    """sum over n <= n_max of mu(n) r(n) / n^s (finite s >= 1); empty when
    n_max = 0.

    The sweep's checks run first, so a refused input sieves nothing. Then
    the Mobius sieve runs, before the counts exist, and only its int8 mu is
    kept. The lattice sweep then builds the counts r(n), and the signs
    are applied to them in place: |mu(n) r(n)| <= r(n) fits the counts'
    dtype, and mu is freed before the terms are formed, so no full-length
    mask sits next to the counts. Each term is float(mu(n) r(n)) / n^s,
    which equals float(mu(n)) * r(n) / n^s exactly.

    Only n = 1 and the n with mu(n) r(n) != 0 are added, in ascending n, by
    one left-to-right np.cumsum. The n = 1 term r(1) is +0.0 or positive, so
    no partial sum is -0.0, and adding a dropped +-0.0 term would leave it
    unchanged: the value is bit-identical to a cumulative sum over every
    n <= n_max.
    """
    if not math.isfinite(s):
        raise DomainError(f"s = {s} is not finite")
    if s < 1:
        raise DomainError(f"s = {s} below 1")
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if n_max == 0:
        return 0.0
    _sweep_ymax(form, n_max)
    mu = sieve_range(max(n_max, 2)).mu[: n_max + 1]
    signed = representation_counts(form, n_max)
    signed *= mu
    del mu
    # np.flatnonzero runs about three times as fast on a bool mask as on
    # int16; one block's mask at a time keeps a full-length one off the counts
    ns = np.concatenate([np.flatnonzero(signed[lo : lo + _NONZERO_BLOCK] != 0) + lo
                         for lo in range(0, signed.size, _NONZERO_BLOCK)])
    if not signed[1]:
        ns = np.concatenate(([1], ns))
    terms = signed[ns].astype(np.float64)
    del signed
    with np.errstate(over="ignore"):  # n^s = inf makes the term 0, as it should
        terms /= ns.astype(np.float64) ** s
    return float(np.cumsum(terms)[-1])
