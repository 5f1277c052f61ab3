"""The output checks must catch a count, a Lambda sum or a dset member count
that is off by one. Run with: python3 -m pytest perfbench/test_checks.py -q
"""

import json
from pathlib import Path

import pytest

import checks
import workloads

REF = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def fmt(v) -> str:
    return format(v, ".15g") if isinstance(v, float) else str(v)


def csv_text(header, rows) -> str:
    lines = ["# command=test", ",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def job(workload: str, command: str) -> list[str]:
    return next(argv for argv in workloads.jobs(workload, 0) if argv[0] == command)


def count_output(bump_at=None, extra_column=False):
    k = str(workloads.seed_k(0))
    series = REF["singular_series"][k]
    rows = []
    for x, observed in REF["count"][k].items():
        observed += x == bump_at
        predicted = series * checks._main_term(int(x))
        row = [int(x), observed, predicted, observed / predicted, REF["count_pmax"]]
        rows.append(row + [0.99] if extra_column else row)
    header = ["x", "observed", "predicted", "ratio", "p_cutoff"]
    return csv_text(header + ["ratio_li"] if extra_column else header, rows)


def chebyshev_output(delta=0.0):
    argv = job("lambda", "chebyshev")
    k, x = argv[2], argv[4]
    want = REF["chebyshev"][k][x]
    rows = [[int(x), "power(1)", want["value"] + delta, want["tail"], checks._bound(int(x))]]
    return argv, csv_text(["x", "weight", "value", "tail", "bound"], rows)


def dset_output(bump_at=None):
    rows = []
    for x, members in REF["dset"].items():
        members += x == bump_at
        rows.append([int(x), members, members / int(x)])
    return csv_text(["x", "members", "ratio"], rows)


def test_count_passes_and_reads_columns_by_name():
    argv = job("count", "count")
    assert checks.check_job(argv, count_output(), REF) == []
    assert checks.check_job(argv, count_output(extra_column=True), REF) == []


@pytest.mark.parametrize("x", list(REF["count"]["2"]))
def test_count_off_by_one_fails(x):
    assert checks.check_job(job("count", "count"), count_output(bump_at=x), REF)


def test_lambda_sum_off_by_one_fails():
    argv, good = chebyshev_output()
    assert checks.check_job(argv, good, REF) == []
    for delta in (1.0, -1.0):
        assert checks.check_job(argv, chebyshev_output(delta)[1], REF)


@pytest.mark.parametrize("x", list(REF["dset"]))
def test_dset_member_count_off_by_one_fails(x):
    argv = job("local", "dset")
    assert checks.check_job(argv, dset_output(), REF) == []
    assert checks.check_job(argv, dset_output(bump_at=x), REF)


def test_verify_needs_every_line_pass():
    ok = "PASS a: fine\nPASS b: fine\n2/2 checks passed\n"
    assert checks.check_job(["verify"], ok, REF) == []
    assert checks.check_job(["verify"], ok.replace("PASS b", "FAIL b"), REF)
    assert checks.check_job(["verify"], "PASS a: fine\n1/2 checks passed\n", REF)
    assert checks.check_job(["verify"], "", REF)
