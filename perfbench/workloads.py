"""The benchmark's workloads: fixed lists of cubicprimes CLI jobs.

Each job is one argv for the CLI and runs as its own fresh process. The
workload seed picks the shift k for `count` and `lambda`; `local` always
runs at k = 2.
"""

from __future__ import annotations

WORKLOADS = ("count", "lambda", "local")

# k = 2 * c^3 with c = 1 or a product of primes = 2 mod 3 has the same root
# count as x^3 + 2 modulo every prime, hence the same prescreen survivors,
# the same singular series and the same work. Signs and c are chosen so that
# the tail at -k is nonzero (3^3 - 2 = 5^2, 7^3 - 54 = 17^2, 3^3 + 54 = 3^4,
# 15^3 - 250 = 5^5, 17^3 + 128 = 71^2), so no tail check is vacuous.
SEED_K = (2, 54, -54, 250, -128)

COUNT_CHECKPOINTS = (10**6, 10**9, 10**12, 10**15, 10**18)
COUNT_PMAX = 10**6  # the CLI's default --pmax
# Smaller than the headline scales (1e14, 1e15, 1e7 and the full verify
# bounds) so that a 40 s run holds several rounds; see README.md.
CHEBYSHEV_X = 10**13
TAIL_CHECKPOINTS = (10**9, 10**12, 10**14)
LEMMA2_NMAX = 30_000
DSET_X = 3 * 10**6
EPSTEIN_X = 10**7
EPSTEIN_FORM = (1, 0, 27)
LEMMA3_PMAX = 200_000


def seed_k(seed: int) -> int:
    """The shift k that `count` and `lambda` use for this seed; seed 0 gives 2."""
    return SEED_K[seed % len(SEED_K)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def jobs(workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI jobs, in the order one round runs them."""
    k = seed_k(seed)
    if workload == "count":
        return [["count", "--k", str(k), "--checkpoints", _csv(COUNT_CHECKPOINTS)]]
    if workload == "lambda":
        return [
            ["chebyshev", "--k", str(k), "--x", str(CHEBYSHEV_X)],
            ["tail", "--k", str(-k), "--checkpoints", _csv(TAIL_CHECKPOINTS)],
            ["verify", "--suite", "eq3", "--scale", "full", "--k", str(k)],
            ["verify", "--suite", "lemma2", "--scale", "full", "--nmax", str(LEMMA2_NMAX)],
        ]
    if workload == "local":
        return [
            ["dset", "--k", "2", "--x", str(DSET_X)],
            ["dseries", "--k", "2", "--x", str(DSET_X)],
            ["epstein", "--form", _csv(EPSTEIN_FORM), "--s", "1", "--mu", "--x", str(EPSTEIN_X)],
            ["verify", "--suite", "lemma3", "--scale", "full", "--pmax", str(LEMMA3_PMAX)],
            ["verify", "--suite", "rho", "--scale", "full"],
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
