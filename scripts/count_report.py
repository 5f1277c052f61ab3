"""Headline experiment: observed counts of primes n^3 + k against the
predicted S * x^(1/3) / log x at decade checkpoints.

python3 scripts/count_report.py
python3 scripts/count_report.py --k 4 --max-exp 15
"""

import argparse
import time

from cubicprimes import count_table, singular_series


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--min-exp", type=int, default=6)
    ap.add_argument("--max-exp", type=int, default=18)
    ap.add_argument("--step", type=int, default=3)
    ap.add_argument("--pmax", type=int, default=10**6,
                    help="prime cutoff for the singular series")
    args = ap.parse_args()

    checkpoints = [10**e for e in range(args.min_exp, args.max_exp + 1, args.step)]
    constant = singular_series(args.k, args.pmax)
    print(f"k = {args.k}, S truncated at p <= {args.pmax}: {constant:.12f}")
    print(f"{'x':>22} {'observed':>9} {'predicted':>14} {'ratio':>8}")
    started = time.perf_counter()
    for r in count_table(args.k, checkpoints, args.pmax):
        print(f"{r.x:>22} {r.observed:>9} {r.predicted:>14.3f} {r.ratio:>8.4f}")
    print(f"({time.perf_counter() - started:.2f}s)")


if __name__ == "__main__":
    main()
