"""Byte-identity evidence: run a fixed set of CLI commands and write each
output body (the '#' metadata block stripped) to its own file, so that two
source trees can be compared with `diff -r`.

python3 scripts/body_dump.py OUTDIR
python3 scripts/body_dump.py OUTDIR --src /path/to/other/checkout/src

Each command runs as `python3 -m cubicprimes.cli ...` in a fresh process
with PYTHONPATH set to --src (default: this checkout's src). A command that
exits nonzero stops the dump.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_K = (2, 54, -54, 250, -128)  # the benchmark's shifts


def segment_edges(seg: int, chebyshev_x: int) -> list[list[str]]:
    """Commands at the edges of a walk in segments of seg indices. Count
    checkpoints one index below, at and above the first segment edge and
    the edge three segments on, then 99 indices into a fifth segment, so
    that the split walk's shares end inside a bound's spans and next to
    spans of one index. A Lambda sum to chebyshev_x, across the first edge,
    and a tail whose index bounds lie one below, at (twice) and one above
    that edge, with no new prime power after x = 1000."""
    counts = [["count", "--k", str(k), "--checkpoints",
               ",".join(str(n**3 + k) for n in (f + seg - 1, f + seg, f + seg + 1,
                                                 f + 3 * seg - 1, f + 3 * seg,
                                                 f + 3 * seg + 1, f + 4 * seg + 99))]
              for k, f in ((2, 0), (-17, 3))]  # f = min_index(k)
    tail = ["tail", "--k", "-54", "--checkpoints",
            ",".join(["1000"] + [str(n**3 - 54) for n in (4 + seg - 1, 4 + seg, 4 + seg,
                                                           4 + seg + 1)])]  # 4 = min_index(-54)
    return [*counts, ["chebyshev", "--k", "2", "--x", str(chebyshev_x)], tail]

COMMANDS = [
    *(["count", "--k", str(k), "--checkpoints", "1000000,1000000000,1000000000000"]
      for k in BENCH_K),
    *(["constant", "--k", str(k), "--checkpoints", "100,10000,1000000"] for k in BENCH_K),
    ["dset", "--k", "2", "--x", "100000"],
    ["dseries", "--k", "2", "--x", "100000"],
    ["epstein", "--form", "1,0,27", "--s", "1", "--mu", "--x", "100000"],
    ["epstein", "--form", "4,2,7", "--s", "1.5", "--x", "10000"],
    ["chebyshev", "--k", "2", "--x", "1000000"],
    ["tail", "--k", "-2", "--checkpoints", "1000,1000000"],
    ["rho", "--k", "2", "--q", "31"],
    ["rho", "--k", "54", "--q", "30"],
    ["rho", "--k", "2", "--q", "30030"],
    ["dset", "--k", "54", "--x", "1000000"],
    ["dseries", "--k", "250", "--x", "1000000"],
    ["residue", "--a", "2", "--p", "31"],
    # every residue branch and class: p = 3, p = 2 mod 3, the nonresidue
    # form, a nonresidue a with its exponent, and a not coprime to p
    *(["residue", "--a", "2", "--p", str(p)] for p in (3, 5, 7, 13)),
    ["residue", "--a", "3", "--p", "7"],
    ["residue", "--a", "14", "--p", "7"],
    ["lemma4", "--q", "31", "--a", "-2", "--x", "100"],
    ["verify", "--suite", "all", "--scale", "tiny"],
    ["verify", "--suite", "rho", "--scale", "full", "--k", "54"],
    ["verify", "--suite", "all", "--scale", "full"],
    # the benchmark's lemma2 job, and the smallest bound lemma2 accepts
    ["verify", "--suite", "lemma2", "--scale", "full", "--nmax", "30000"],
    ["verify", "--suite", "lemma2", "--nmax", "2"],
    # both routes of the weighted sum, printed with repr, for other shifts
    *(["verify", "--suite", "eq3", "--scale", "full", "--k", str(k)]
      for k in (54, -54, 250, -128, -2)),
    *(["chebyshev", "--k", str(k), "--x", "10000000000000"] for k in BENCH_K),
    *(["chebyshev", "--k", "2", "--x", "1000000000", "--weight", w]
      for w in ("totient", "sigma", "tau")),
    ["dseries", "--k", "2", "--checkpoints", "1000,100000,1000000"],
    ["chebyshev", "--k", "17", "--x", "1000000"],
    *(["tail", "--k", str(-k), "--checkpoints", "1000000000,1000000000000,100000000000000"]
      for k in BENCH_K),
    # values above 2^63, where the batch certifier's sums can pass 2^64
    *(["count", "--k", str(k), "--checkpoints",
       "1000000000000000,1000000000000000000,18446744073709551615"] for k in BENCH_K),
    # the array root-count rule with other shifts, and with |k| >= 2^63
    ["dseries", "--k", "-128", "--x", "3000000"],
    ["dset", "--k", "7", "--x", "1000000"],
    ["epstein", "--form", "4,2,7", "--s", "1", "--mu", "--x", "1000000"],
    ["constant", "--k", "9223372036854775809", "--checkpoints", "100,10000,1000000"],
    ["dset", "--k", "-36893488147419103235", "--x", "100000"],
    # a shift far past the float range, where exact integer roots are needed
    ["constant", "--k", str(10**400 + 1), "--checkpoints", "100,10000,1000000"],
    ["count", "--k", str(10**400 + 1), "--checkpoints", "1000000,1000000000"],
    # the benchmark's local jobs
    ["dset", "--k", "2", "--x", "3000000"],
    ["dseries", "--k", "2", "--x", "3000000"],
    ["epstein", "--form", "1,0,27", "--s", "1", "--mu", "--x", "10000000"],
    ["verify", "--suite", "lemma3", "--scale", "full", "--pmax", "200000"],
    ["verify", "--suite", "rho", "--scale", "full"],
    # the rho check with other shifts, and at the smallest bound it accepts
    *(["verify", "--suite", "rho", "--scale", "full", "--k", str(k)]
      for k in (-2, 250, -128, 10**30 + 7)),
    ["verify", "--suite", "rho", "--nmax", "1"],
    # the exact power test at the top of the value range, and moduli whose
    # prime cubes are struck because p^2 | k (7^2 | 98, 11^2 | 242)
    ["tail", "--k", "-2", "--checkpoints", "1000000000000000000,18446744073709551615"],
    ["chebyshev", "--k", "2", "--x", "18446744073709551615"],
    ["dset", "--k", "98", "--x", "1000000"],
    ["dset", "--k", "242", "--x", "1000000"],
    # limits at the prime square 97^2, where the multiples sweep moves 97
    # from the strided slices to the multiplier steps
    ["dset", "--k", "2", "--x", "9409"],
    ["dseries", "--k", "2", "--x", "9409"],
    ["verify", "--suite", "rho", "--nmax", "9409"],
    ["verify", "--suite", "lemma2", "--nmax", "9409"],
    # single checkpoints whose walk spans 10^5 indices or more, so that it
    # sieves with every prime below 10^5
    *(["count", "--k", str(k), "--checkpoints", "1000000000000000"] for k in BENCH_K),
    ["count", "--k", "2", "--checkpoints", "18446744073709551615"],
    # counts to 2^64 whose shifts are not 2c^3, so the survivors and the
    # mix of Selfridge's D differ from the benchmark's
    *(["count", "--k", str(k), "--checkpoints",
       "1000000000000000,1000000000000000000,18446744073709551615"] for k in (3, 7, -17)),
    # Mobius sums with int32 counts, where the signs are applied in place,
    # and with a form that represents no n = 1
    ["epstein", "--form", "10001,200,1", "--s", "400", "--mu", "--x", "10000"],
    ["epstein", "--form", "2,1,3", "--s", "1", "--mu", "--x", "100000"],
    # the edges of 2^16-index segments, the walk's segment size before 2^17
    *segment_edges(2**16, 10**15),
    # the partial sums at s != 1, and at a repeated checkpoint off the decades
    ["dseries", "--k", "2", "--s", "1.5", "--x", "100000"],
    ["dseries", "--k", "-17", "--checkpoints", "10,1000,1000,100000"],
    # the half-plane lattice sweep with b != 0 (odd b at an odd bound), and
    # the Mobius sieve's even fill at a bound = 2 mod 4
    ["epstein", "--form", "2,1,3", "--s", "1", "--mu", "--x", "99999"],
    ["epstein", "--form", "4,2,7", "--s", "1", "--mu", "--x", "100002"],
    ["dseries", "--k", "2", "--x", "100002"],
    # values at or below the sieve bound, which the sieve leaves to the
    # certifier, at each depth: bound 100 (a span under 10^3), 10^3 and
    # 10^5, from shifts with a cube, a sieve prime or 1 among those values
    ["count", "--k", "2", "--checkpoints", "8,1000,1000000"],
    ["count", "--k", "-17", "--checkpoints", "10,1000,1000000000000"],
    ["count", "--k", "54", "--checkpoints", "27,1000,1000000000000000"],
    ["count", "--k", "250", "--checkpoints", "8,1000,1000000000000000"],
    ["chebyshev", "--k", "28", "--x", "1000"],  # 1 at n = -3, 3^3 at n = -1
    ["chebyshev", "--k", "28", "--x", "1000000000000"],
    ["chebyshev", "--k", "250", "--x", "1000000000000000"],
    ["verify", "--suite", "eq3", "--scale", "full", "--k", "28"],
    # rows at listed checkpoints only, and Lemma 4 over every solvable
    # squarefree modulus of another shift
    ["dset", "--k", "2", "--checkpoints", "10,100,1000"],
    ["verify", "--suite", "lemma4", "--scale", "full", "--k", "54"],
    # the edges of the walk's segments (counting._SEGMENT)
    *segment_edges(2**17, 10**16),
]


def body(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for i, argv in enumerate(COMMANDS):
        proc = subprocess.run([sys.executable, "-m", "cubicprimes.cli", *argv],
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"exit {proc.returncode}: {' '.join(argv)}\n{proc.stderr}")
        name = f"{i:02d}_" + "_".join(a.removeprefix("--").replace(",", "_") for a in argv)
        # the index keeps names unique; the cap keeps a 401-digit --k under
        # the file system's name limit
        name = name[:120]
        (args.outdir / f"{name}.txt").write_text(body(proc.stdout), encoding="utf-8")
        print(f"{name}", flush=True)


if __name__ == "__main__":
    main()
