"""Benchmark of the cubicprimes command line.

    python3 perfbench/run.py --workload count --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout: the package is imported from
src/. One client runs the workload's CLI jobs one after another, each in a
fresh process (a closed loop, no threads). A round is one pass over the
job list; the run repeats whole rounds while the next one still fits in
--seconds, checks every job's output (checks.py), and prints as its last
line one JSON object with the correctness verdict, the jobs attempted and
failed, and the metrics: the end-to-end ones with --trace 0, the per-layer
ones from traced rounds with --trace 1. Every reported time is scaled to a
reference host speed, measured by how long the jobs take to import numpy.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# interpreter start plus numpy import, median over a run's jobs, at the
# reference speed: the median over the reference runs in README.md
NUMPY_READY_REF_S = 0.20
RUN_LIMIT_S = 170.0  # no job may outlive this share of the 180 s a run is allowed

CALL_COUNTS = ("arith.is_prime", "arith.factorize", "arith.integer_root",
               "residues.gauss_classify", "residues.roots_mod")


@dataclass
class Launch:
    """One job process: when it was spawned, had imported numpy, had
    imported the package and had ended; its peak resident set, exit code
    and output."""

    argv: list[str]
    spawn: float
    numpy_ready: float | None
    ready: float | None
    end: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str

    @property
    def setup_s(self) -> float | None:
        return None if self.ready is None else self.ready - self.spawn


def launch(args: list[str], tag: str, deadline: float) -> Launch:
    """Run perfbench/job.py with args to its end, killing it at deadline."""
    out, err = OUT / f"{tag}.out", OUT / f"{tag}.err"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    with open(out, "wb") as so, open(err, "wb") as se:
        spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "job.py"), *args],
                                stdout=so, stderr=se, cwd=ROOT, env=env)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(deadline - spawn, 0.1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err.read_text(encoding="utf-8", errors="replace")
    first = stderr.split("\n", 1)[0].split()
    numpy_ready, ready = map(float, first[1:3]) if first[:1] == ["perfbench-ready"] else (None, None)
    return Launch(args, spawn, numpy_ready, ready, end, usage.ru_maxrss / 1024.0, proc.returncode,
                  out.read_text(encoding="utf-8", errors="replace"), stderr)


@dataclass
class Round:
    jobs: list[Launch]
    traces: list[dict]

    @property
    def wall_s(self) -> float:
        return self.jobs[-1].end - self.jobs[0].spawn

    @property
    def peak_rss_mb(self) -> float:
        return max(j.rss_mb for j in self.jobs)


def run_round(workload: str, job_list, traced: bool, deadline: float) -> Round:
    done, traces = [], []
    for i, argv in enumerate(job_list):
        prefix = OUT / f"trace-{workload}-{i}"
        args = (["--trace", str(prefix)] if traced else []) + ["--", *argv]
        prefix.with_suffix(".json").unlink(missing_ok=True)
        done.append(launch(args, f"{workload}-{i}", deadline))
        if traced:
            try:
                traces.append(json.loads(prefix.with_suffix(".json").read_text()))
            except (OSError, ValueError):
                traces.append(None)
    return Round(done, traces)


def layer_totals(rnd: Round) -> dict[str, float] | None:
    """One traced round's per-layer metrics, summed over its jobs."""
    if any(t is None for t in rnd.traces):
        return None

    def total(key: str, qualname: str):
        return sum(t[key][qualname] for t in rnd.traces)

    out = {f"{q}.self_s": total("self_s", q) for q in rnd.traces[0]["self_s"]}
    out.update({f"{q}.calls": total("calls", q) for q in CALL_COUNTS})
    out["arith.sieve_range.bytes"] = total("value", "arith.sieve_range")
    calls = sum(t["certify_calls"] for t in rnd.traces)
    out["counting.certify_yield"] = (
        sum(t["certify_primes"] for t in rnd.traces) / calls if calls else 0.0)
    return out


LAYER_UNITS = {"self_s": "s", "calls": "count", "bytes": "B",
               "certify_yield": "primes/call", "overhead_s": "s"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cubicprimes" / "cli.py").is_file():
        print(f"error: no cubicprimes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    job_list = workloads.jobs(args.workload, args.seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # with tracing, untraced and traced rounds alternate so drift hits both
    kinds = (False, True) if args.trace else (False,)
    rounds: dict[bool, list[Round]] = {False: [], True: []}
    cycles = []
    while True:
        cycle_start = time.monotonic()
        for traced in kinds:
            rounds[traced].append(run_round(args.workload, job_list, traced, deadline))
        now = time.monotonic()
        cycles.append(now - cycle_start)
        if now - start + statistics.median(cycles) > args.seconds or now > deadline:
            break

    all_rounds = rounds[False] + rounds[True]
    launches = [j for r in all_rounds for j in r.jobs]
    failed = [j for j in launches if j.code != 0]
    problems, wrong_jobs = [], 0
    for j in launches:
        if j.code == 0:
            found = checks.check_job(j.argv[j.argv.index("--") + 1:], j.stdout, reference)
            problems += [f"{' '.join(j.argv)}: {p}" for p in found]
            wrong_jobs += bool(found)
    for j in failed[:3]:
        print(f"failed (exit {j.code}): {' '.join(j.argv)}\n{j.stderr[-2000:]}", file=sys.stderr)
    for p in sorted(set(problems))[:20]:
        print(f"wrong output: {p}", file=sys.stderr)

    untraced = rounds[False]
    setups = [j.setup_s for r in untraced for j in r.jobs if j.setup_s is not None]
    if not setups:
        print("error: no process got as far as importing cubicprimes", file=sys.stderr)
        return 1
    for i, argv in enumerate(job_list):
        walls = [r.jobs[i].end - r.jobs[i].spawn for r in untraced]
        print(f"# job {' '.join(argv)}: median {statistics.median(walls):.3f} s over "
              f"{len(walls)} rounds, peak rss {max(r.jobs[i].rss_mb for r in untraced):.1f} MB",
              file=sys.stderr)
    print("# round wall_s: " + " ".join(f"{r.wall_s:.3f}" for r in untraced), file=sys.stderr)
    print(f"# {len(untraced)} untraced and {len(rounds[True])} traced rounds, "
          f"{len(launches)} jobs ({len(failed)} failed), "
          f"{len(launches) - len(failed)} output checks ({wrong_jobs} wrong), "
          f"{len(setups)} set-up samples, {time.monotonic() - start:.1f} s", file=sys.stderr)

    if args.trace:
        per_round = [t for t in map(layer_totals, rounds[True]) if t is not None]
        if not per_round:
            print("error: no traced round left its spans", file=sys.stderr)
            return 1
        counts = {name: {t[name] for t in per_round} for name in per_round[0]
                  if name.endswith(".calls")}
        for name, seen in counts.items():
            if len(seen) > 1:
                print(f"warning: {name} differs between traced rounds: {sorted(seen)}",
                      file=sys.stderr)
        # counts are reported as a count seen in a round, times as the median
        values = {name: (statistics.median_low if name.endswith((".calls", ".bytes"))
                         else statistics.median)(t[name] for t in per_round)
                  for name in per_round[0]}
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in rounds[True])
                                      - statistics.median(r.wall_s for r in untraced))
    else:
        values = {
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "setup_s": len(job_list) * statistics.median(setups),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
        }
    # The host's speed drifts by up to 1.5x over minutes. Every job first
    # starts an interpreter and imports numpy, which no change to the package
    # can speed up or slow down; how long that took says how fast the host
    # ran, and every time is rescaled to the speed at which it takes
    # NUMPY_READY_REF_S.
    numpy_ready = statistics.median(j.numpy_ready - j.spawn for j in launches
                                    if j.numpy_ready is not None)
    scale = NUMPY_READY_REF_S / numpy_ready
    print(f"# numpy ready after {numpy_ready:.4f} s (median), times scaled by {scale:.4f}"
          + "".join(f"; unscaled {k} {values[k]:.4f}" for k in ("wall_s", "setup_s") if k in values),
          file=sys.stderr)
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {}
    for name, v in values.items():
        unit = units.get(name) or LAYER_UNITS[name.rsplit(".", 1)[1]]
        metrics[name] = {"value": v * scale if unit == "s" else v, "unit": unit}
    print(json.dumps({"correct": not problems, "attempted": len(launches),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
