"""Run one cubicprimes CLI job in this fresh process, as a user runs the CLI.

    python3 perfbench/job.py [--trace PREFIX] -- <cli arguments>

The first line this writes to stderr is `perfbench-ready <t_numpy> <t>`:
the CLOCK_MONOTONIC times at which the interpreter has started and imported
numpy, and at which it has also imported the package. The parent takes
set-up time as t minus its own clock reading just before it spawned the
process, and t_numpy minus that reading as a measure of the host's speed
that no change to the package can move.

With --trace, the public functions in TRACED are wrapped in every
cubicprimes module that holds them (counting.is_prime as well as
arith.is_prime), each call is kept in memory as a span (name, start, end,
parent, value), and at exit the spans go to PREFIX.npz and their per-layer
totals to PREFIX.json.
"""

from __future__ import annotations

import sys
import time

import numpy as np

NUMPY_READY = time.monotonic()

from cubicprimes import cli  # noqa: E402

READY = time.monotonic()

import dataclasses  # noqa: E402  (after READY: not part of the CLI's set-up)
import functools  # noqa: E402
import json  # noqa: E402
from array import array  # noqa: E402

TRACED = (
    "arith.is_prime",
    "arith.factorize",
    "arith.integer_root",
    "arith.sieve_range",
    "arith.primes_up_to",
    "counting.count_table",
    "counting.singular_series",
    "counting.weighted_lambda_sum",
    "counting.prime_power_tail",
    "counting.lambda_sum_rhs",
    "dset.enumerate_dset",
    "series.dirichlet_partial_sum",
    "series.representation_counts",
    "series.epstein_mu_sum",
    "residues.gauss_classify",
    "residues.roots_mod",
    "verify.run_suite",
    "cli.run",
)


def _table_bytes(tables) -> int:
    """Bytes of the arrays a sieve returns, from their dtypes."""
    return sum(
        v.dtype.itemsize * v.size
        for v in (getattr(tables, f.name) for f in dataclasses.fields(tables))
        if isinstance(v, np.ndarray)
    )


# a span's value: what the call produced that a per-layer metric counts
VALUE_OF = {"arith.is_prime": int, "arith.sieve_range": _table_bytes}


class Tracer:
    """Spans of the traced calls, held in flat arrays until the job ends."""

    def __init__(self):
        self.name = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._open = [-1]

    def wrap(self, name_ix: int, fn, value_of=None):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        values, open_spans, clock = self.value, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_ix)
            parents.append(open_spans[-1])
            values.append(0)
            ends.append(0.0)
            open_spans.append(i)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_spans.pop()
            if value_of is not None:
                values[i] = value_of(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cubicprimes"]
        for ix, qualname in enumerate(TRACED):
            module, attr = qualname.split(".")
            original = getattr(sys.modules[f"cubicprimes.{module}"], attr)
            wrapped = self.wrap(ix, original, VALUE_OF.get(qualname))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapped)

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int16), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.value, dtype=np.int64))

    def totals(self) -> dict:
        """Per traced function: calls, self seconds (own time minus that of
        its child spans) and summed values; plus the is_prime calls made
        under count_table and how many of them found a prime."""
        name, parent, start, end, value = self.arrays()
        dur = end - start
        nested = parent >= 0
        self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(TRACED)
        calls = np.bincount(name, minlength=n)
        self_by = np.bincount(name, weights=self_s, minlength=n)
        value_by = np.bincount(name, weights=value, minlength=n)
        # count_table never nests in itself, so its spans are disjoint intervals
        ct = np.flatnonzero(name == TRACED.index("counting.count_table"))
        under = np.zeros(len(dur), dtype=bool)
        if ct.size:
            pos = np.searchsorted(start[ct], start, side="right") - 1
            under = (pos >= 0) & (start < end[ct][np.maximum(pos, 0)])
        mr = under & (name == TRACED.index("arith.is_prime"))
        return {
            "spans": int(len(dur)),
            "calls": {q: int(calls[i]) for i, q in enumerate(TRACED)},
            "self_s": {q: float(self_by[i]) for i, q in enumerate(TRACED)},
            "value": {q: int(value_by[i]) for i, q in enumerate(TRACED)},
            "certify_calls": int(mr.sum()),
            "certify_primes": int(value[mr].sum()),
        }

    def write(self, prefix: str) -> None:
        name, parent, start, end, value = self.arrays()
        np.savez(f"{prefix}.npz", names=np.array(TRACED), name=name, parent=parent,
                 start=start, end=end, value=value)
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(self.totals(), fh)


def main(argv: list[str]) -> int:
    sys.stderr.write(f"perfbench-ready {NUMPY_READY!r} {READY!r}\n")
    sys.stderr.flush()
    prefix = None
    if argv[:1] == ["--trace"]:
        prefix, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        sys.stderr.write("usage: job.py [--trace PREFIX] -- <cli arguments>\n")
        return 2
    if prefix is None:
        return cli.run(argv[1:])
    tracer = Tracer()
    tracer.install()
    try:
        return cli.run(argv[1:])
    finally:
        tracer.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
