"""Checks of each CLI job's output against reference values made apart
from the program (see make_reference.py), or against properties the
method must have.

CSV columns are read by header name, so a later extra column does not
break a check. Every check returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import csv
import math

import mpmath

# Float sums of up to 8e5 terms, added in another order than the reference's
# exactly rounded ones, agree to 3e-14 here; 1e-11 still catches a Lambda
# sum of 3e8 that is off by one.
REL = 1e-11


def parse_csv(text: str) -> list[dict[str, str]]:
    """The data rows of the CLI's CSV output, keyed by header name."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(body))


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL, abs_tol=1e-9)


def _main_term(x: int) -> float:
    """x^(1/3) / log x, recomputed in high precision."""
    return float(mpmath.cbrt(x) / mpmath.log(x))


def _bound(x: int) -> float:
    """sqrt(x) * log(x)^2, the tail's comparison quantity."""
    return float(mpmath.sqrt(x) * mpmath.log(x) ** 2)


def _expect_rows(rows, want_xs, problems) -> bool:
    got = [int(r["x"]) for r in rows]
    if got != [int(x) for x in want_xs]:
        problems.append(f"rows at x = {got}, expected {list(want_xs)}")
        return False
    return True


def check_count(argv, rows, ref) -> list[str]:
    k = _option(argv, "--k")
    counts = ref["count"].get(k)
    problems: list[str] = []
    if counts is None:
        return [f"no reference count for k = {k}"]
    if not _expect_rows(rows, counts, problems):
        return problems
    series = ref["singular_series"][k]
    for r in rows:
        x, observed = int(r["x"]), int(r["observed"])
        predicted, ratio = float(r["predicted"]), float(r["ratio"])
        if observed != counts[r["x"]]:
            problems.append(f"x={x}: observed {observed}, sympy count {counts[r['x']]}")
        if not _close(predicted, series * _main_term(x)):
            problems.append(f"x={x}: predicted {predicted}, recomputed {series * _main_term(x)}")
        if not _close(ratio, observed / predicted):
            problems.append(f"x={x}: ratio {ratio} is not observed / predicted")
        if int(r["p_cutoff"]) != ref["count_pmax"]:
            problems.append(f"x={x}: p_cutoff {r['p_cutoff']}, expected {ref['count_pmax']}")
    return problems


def check_chebyshev(argv, rows, ref) -> list[str]:
    k, x = _option(argv, "--k"), _option(argv, "--x")
    want = ref["chebyshev"].get(k, {}).get(x)
    if want is None:
        return [f"no reference Lambda sum for k = {k}, x = {x}"]
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    r = rows[0]
    problems = []
    for col in ("value", "tail"):
        if not _close(float(r[col]), want[col]):
            problems.append(f"{col} {r[col]}, sympy Lambda sum {want[col]!r}")
    if not _close(float(r["bound"]), _bound(int(x))):
        problems.append(f"bound {r['bound']}, recomputed {_bound(int(x))!r}")
    return problems


def check_tail(argv, rows, ref) -> list[str]:
    k = _option(argv, "--k")
    tails = ref["tail"].get(k)
    problems: list[str] = []
    if tails is None:
        return [f"no reference tail for k = {k}"]
    if not _expect_rows(rows, tails, problems):
        return problems
    for r in rows:
        tail, bound = float(r["tail"]), float(r["bound"])
        if not _close(tail, tails[r["x"]]):
            problems.append(f"x={r['x']}: tail {tail}, prime-power enumeration {tails[r['x']]!r}")
        if not _close(bound, _bound(int(r["x"]))):
            problems.append(f"x={r['x']}: bound {bound}, recomputed {_bound(int(r['x']))!r}")
        if tail > bound:
            problems.append(f"x={r['x']}: tail {tail} above its bound {bound}")
    return problems


def check_dset(argv, rows, ref) -> list[str]:
    counts = ref["dset"]
    problems: list[str] = []
    if _option(argv, "--k") != "2" or _option(argv, "--x") != ref["dset_x"]:
        return [f"no reference for {' '.join(argv)}"]
    if not _expect_rows(rows, counts, problems):
        return problems
    for r in rows:
        members = int(r["members"])
        if members != counts[r["x"]]:
            problems.append(f"x={r['x']}: {members} members, local characterisation {counts[r['x']]}")
        if not _close(float(r["ratio"]), members / int(r["x"])):
            problems.append(f"x={r['x']}: ratio {r['ratio']} is not members / x")
    return problems


def check_dseries(argv, rows, ref) -> list[str]:
    want = ref["dseries"]
    problems: list[str] = []
    if _option(argv, "--k") != "2" or _option(argv, "--x") != ref["dset_x"]:
        return [f"no reference for {' '.join(argv)}"]
    if not _expect_rows(rows, want, problems):
        return problems
    for r in rows:
        w = want[r["x"]]
        if float(r["s"]) != 1.0:
            problems.append(f"x={r['x']}: s = {r['s']}, expected 1")
        if int(r["terms_used"]) != w["terms_used"]:
            problems.append(f"x={r['x']}: terms_used {r['terms_used']}, expected {w['terms_used']}")
        if not _close(float(r["value"]), w["value"]):
            problems.append(f"x={r['x']}: value {r['value']}, reference {w['value']!r}")
    return problems


def check_epstein(argv, rows, ref) -> list[str]:
    want = ref["epstein"]
    if (_option(argv, "--form"), _option(argv, "--x"), _option(argv, "--s")) != (
            want["form"], want["x"], want["s"]) or "--mu" not in argv:
        return [f"no reference for {' '.join(argv)}"]
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    value = float(rows[0]["value"])
    if not _close(value, want["value"]):
        return [f"value {value}, lattice count {want['value']!r}"]
    return []


def check_verify(text: str) -> list[str]:
    """Every check line PASS, and the summary counts them all."""
    lines = text.splitlines()
    if not lines:
        return ["no output"]
    *checks, summary = lines
    problems = [line for line in checks if not line.startswith("PASS ")]
    n = len(checks)
    if n == 0 or summary != f"{n}/{n} checks passed":
        problems.append(f"summary {summary!r} after {n} check lines")
    return problems


CSV_CHECKS = {
    "count": check_count,
    "chebyshev": check_chebyshev,
    "tail": check_tail,
    "dset": check_dset,
    "dseries": check_dseries,
    "epstein": check_epstein,
}


def check_job(argv: list[str], stdout: str, ref: dict) -> list[str]:
    """Problems with the output of one job that exited 0."""
    command = argv[0]
    if command == "verify":
        return check_verify(stdout)
    if command not in CSV_CHECKS:
        return [f"no check for {command}"]
    try:
        rows = parse_csv(stdout)
        return CSV_CHECKS[command](argv, rows, ref)
    except (KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
