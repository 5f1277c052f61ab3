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
    ["lemma4", "--q", "31", "--a", "-2", "--x", "100"],
    ["verify", "--suite", "all", "--scale", "tiny"],
    ["verify", "--suite", "rho", "--scale", "full", "--k", "54"],
    ["verify", "--suite", "all", "--scale", "full"],
    *(["chebyshev", "--k", str(k), "--x", "10000000000000"] for k in BENCH_K),
    *(["chebyshev", "--k", "2", "--x", "1000000000", "--weight", w]
      for w in ("totient", "sigma", "tau")),
    ["dseries", "--k", "2", "--x", "1000000", "--checkpoints", "1000,100000,1000000"],
    ["chebyshev", "--k", "17", "--x", "1000000"],
    *(["tail", "--k", str(-k), "--checkpoints", "1000000000,1000000000000,100000000000000"]
      for k in BENCH_K),
    # values above 2^63, where the batch certifier's sums can pass 2^64
    *(["count", "--k", str(k), "--checkpoints",
       "1000000000000000,1000000000000000000,18446744073709551615"] for k in BENCH_K),
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
        (args.outdir / f"{name}.txt").write_text(body(proc.stdout), encoding="utf-8")
        print(f"{name}", flush=True)


if __name__ == "__main__":
    main()
