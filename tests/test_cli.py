import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubicprimes import (
    ConsistencyError,
    DomainError,
    ResourceError,
    __version__,
    cli,
    series,
    verify,
)
from cubicprimes.counting import SERIES_BUDGET
from cubicprimes.series import dirichlet_partial_sum
from cubicprimes.verify import CheckResult

COMMANDS = {
    "count": ["count", "--k", "2", "--x", "130"],
    "constant": ["constant", "--k", "2", "--pmax", "100"],
    "residue": ["residue", "--a", "2", "--p", "31"],
    "rho": ["rho", "--k", "2", "--q", "31"],
    "dset": ["dset", "--k", "2", "--x", "1000"],
    "dseries": ["dseries", "--k", "2", "--x", "1000"],
    "epstein": ["epstein", "--form", "1,0,27", "--s", "2", "--x", "100"],
    "chebyshev": ["chebyshev", "--k", "2", "--x", "130"],
    "lemma4": ["lemma4", "--q", "5", "--a", "-2", "--x", "20"],
    "tail": ["tail", "--k", "2", "--x", "130"],
    "verify": ["verify", "--suite", "rho", "--scale", "tiny"],
}


def run_json(capsys, argv):
    code = cli.run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def body_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.run([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.run(["frobnicate"]) == 2

    def test_version_exits_clean(self, capsys):
        assert cli.run(["--version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_domain_error(self, capsys):
        # x below the smallest checkpoint the prediction accepts
        assert cli.run(["count", "--k", "2", "--x", "4"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("k", ["8", "0", "-27"])
    def test_reducible_cubic_is_domain_error(self, capsys, k):
        assert cli.run(["count", "--k", k, "--x", "1000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "reducible" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("s", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["dseries", "--k", "2", "--x", "1000"],
        ["epstein", "--form", "1,0,27", "--x", "100"],
        ["epstein", "--form", "1,0,27", "--x", "100", "--mu"],
    ])
    def test_non_finite_s_is_domain_error(self, capsys, argv, s):
        assert cli.run(argv + [f"--s={s}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["dset", "--k", "2", "--x", "1000"],
        ["verify", "--suite", "rho", "--scale", "tiny"],
    ])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing_dir" / "x.csv"
        assert cli.run(argv + ["--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert not target.parent.exists()

    def test_capacity_error(self, capsys):
        assert cli.run(["tail", "--k", "2", "--x", str(2**64)]) == 3

    def test_resource_error(self, capsys):
        argv = ["epstein", "--form", "1,0,1", "--s", "2", "--x", str(10**7 + 1)]
        assert cli.run(argv) == 3

    @pytest.mark.parametrize("q,x", [(1, 10**12), (3, 3 * (10**7 + 1))])
    def test_lemma4_term_budget(self, capsys, q, x):
        assert cli.run(["lemma4", "--q", str(q), "--a", "1", "--x", str(x)]) == 3
        captured = capsys.readouterr()
        assert "budget" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["count", "--k", "2", "--x", "1000", "--pmax", str(SERIES_BUDGET + 1)],
        ["constant", "--k", "2", "--pmax", str(SERIES_BUDGET + 1)],
        ["constant", "--k", "2", "--checkpoints", f"100,{SERIES_BUDGET + 1}"],
    ])
    def test_series_budget_refuses_before_sieving(self, capsys, monkeypatch, argv):
        from cubicprimes import counting
        limits = []
        original = counting.primes_up_to

        def recorded(limit):
            limits.append(limit)
            return original(limit)

        monkeypatch.setattr(counting, "primes_up_to", recorded)
        assert cli.run(argv) == 3
        captured = capsys.readouterr()
        assert "budget" in captured.err and captured.out == ""
        assert max(limits, default=0) <= SERIES_BUDGET

    @pytest.mark.parametrize("argv", [
        # lattice rows past int64, then a bound above the Epstein budget
        ["epstein", "--form", "1,2000000,1000000000001", "--s", "1", "--mu", "--x", "10000000"],
        ["epstein", "--form", "1,0,27", "--s", "1", "--mu", "--x", "100000000"],
    ])
    def test_epstein_refuses_before_sieving(self, capsys, monkeypatch, argv):
        limits = []

        def recorded(limit):
            limits.append(limit)
            raise AssertionError("sieved a refused input")

        monkeypatch.setattr(series, "sieve_range", recorded)
        assert cli.run(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert limits == []

    @pytest.mark.parametrize("argv", [
        ["--suite", "lemma2", "--nmax", str(verify.LEMMA2_BUDGET + 1)],
        ["--suite", "lemma3", "--pmax", str(verify.GAUSS_BUDGET + 1)],
        ["--suite", "rho", "--nmax", str(verify.RHO_SCAN_BUDGET + 1)],
    ])
    def test_verify_budgets(self, capsys, argv):
        assert cli.run(["verify", *argv]) == 3
        captured = capsys.readouterr()
        assert "budget" in captured.err and captured.out == ""

    @pytest.mark.parametrize("check,bound", [
        (verify.mangoldt_identity, 1),
        (verify.mangoldt_divisor_sum, 1),
        (verify.gauss_euler_split, 6),
        (verify.rho_against_scan, 0),
    ])
    def test_bound_with_no_instance_is_refused(self, check, bound):
        with pytest.raises(DomainError, match="no instance"):
            check(bound)

    def test_divisor_sum_budget(self):
        # both lemma2 checks share one budget; through the CLI the identity
        # check meets it first, so the divisor sum is refused here directly
        with pytest.raises(ResourceError, match="n_max \\(--nmax\\)"):
            verify.mangoldt_divisor_sum(verify.LEMMA2_BUDGET + 1)

    @pytest.mark.parametrize("argv", [
        ["fixdiv", "--coeffs", "2,1,1"],
        ["chebyshev", "--coeffs", "3,2,3,1", "--x", "100"],
        ["dset", "--coeffs", "3,2,3,1", "--x", "100"],
        ["dseries", "--k", "2", "--highest-first", "--x", "100"],
        ["chebyshev", "--x", "100"],
    ])
    def test_only_the_shift_k_is_accepted(self, capsys, argv):
        assert cli.run(argv) == 2

    def test_consistency_error(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ConsistencyError("routes disagree")

        monkeypatch.setattr(cli, "count_table", boom)
        assert cli.run(["count", "--k", "2", "--x", "130"]) == 4
        assert "routes disagree" in capsys.readouterr().err


class TestCsvOutput:
    def test_shape(self, capsys):
        assert cli.run(["count", "--k", "2", "--x", "130"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert meta[0] == "# command=count"
        assert meta[1] == "# argv=count --k 2 --x 130"
        assert meta[2] == f"# version={__version__}"
        assert meta[3].startswith("# wall_time=")
        assert "# k=2" in meta
        body = body_lines(out)
        assert body[0] == "x,observed,predicted,ratio,p_cutoff"
        cells = body[1].split(",")
        assert cells[0] == "130" and cells[1] == "4" and cells[4] == "1000000"
        assert float(cells[2]) > 0

    def test_line_endings(self, capsys):
        cli.run(["count", "--k", "2", "--x", "130"])
        out = capsys.readouterr().out
        assert "\r" not in out
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_reals_use_fifteen_significant_digits(self, capsys):
        cli.run(["constant", "--k", "2", "--pmax", "10000"])
        out = capsys.readouterr().out
        assert body_lines(out)[1] == "2,10000,1.29653009875726"

    def test_none_renders_empty(self, capsys):
        cli.run(["rho", "--k", "2", "--q", "9"])
        out = capsys.readouterr().out
        assert body_lines(out)[1] == "2,9,0,,0,"


class TestCountMetadata:
    """The walk's worker processes and segments go to the # block and the
    JSON metadata, never to the body."""

    HEADLINE = ["count", "--k", "2", "--checkpoints",
                "1000000,1000000000,1000000000000,1000000000000000,1000000000000000000"]

    def test_headline_walk(self, capsys):
        assert cli.run(self.HEADLINE) == 0
        out = capsys.readouterr().out
        meta = dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("#"))
        assert meta["segments"] == "11"
        assert int(meta["workers"]) >= 1
        assert body_lines(out)[0] == "x,observed,predicted,ratio,p_cutoff"
        _, payload = run_json(capsys, self.HEADLINE)
        assert payload["metadata"]["segments"] == 11
        assert payload["metadata"]["workers"] == int(meta["workers"])
        assert payload["header"] == ["x", "observed", "predicted", "ratio", "p_cutoff"]

    def test_one_segment_walk_has_one_worker(self, capsys):
        argv = ["count", "--k", "2", "--x", "1000000000000"]
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert "# workers=1" in out.splitlines() and "# segments=1" in out.splitlines()
        _, payload = run_json(capsys, argv)
        assert (payload["metadata"]["workers"], payload["metadata"]["segments"]) == (1, 1)


class TestJsonOutput:
    def test_count_payload(self, capsys):
        code, payload = run_json(capsys, ["count", "--k", "2", "--x", "130"])
        assert code == 0
        assert payload["metadata"]["command"] == "count"
        assert payload["metadata"]["k"] == 2
        assert payload["header"] == ["x", "observed", "predicted", "ratio", "p_cutoff"]
        assert payload["rows"][0][:2] == [130, 4]

    def test_residue_payload(self, capsys):
        _, payload = run_json(capsys, ["residue", "--a", "2", "--p", "31"])
        assert payload["rows"] == [[2, 31, "Residue", 0, "ResidueForm", 2, 1]]

    def test_residue_without_gauss_branch(self, capsys):
        _, payload = run_json(capsys, ["residue", "--a", "3", "--p", "31"])
        a, p, tag, exponent, branch, u, v = payload["rows"][0]
        assert (a, p) == (3, 31)
        assert tag == "Nonresidue" and exponent == 2
        assert branch is None and u is None and v is None

    def test_rows_match_csv_body(self, capsys):
        code, payload = run_json(capsys, ["rho", "--k", "2", "--q", "31"])
        assert code == 0
        cli.run(["rho", "--k", "2", "--q", "31"])
        csv_row = body_lines(capsys.readouterr().out)[1]
        assert payload["rows"] == [[2, 31, 1, 3, 3, 1]]
        assert csv_row == "2,31,1,3,3,1"


class TestFlags:
    def test_checkpoints(self, capsys):
        code, payload = run_json(
            capsys, ["count", "--k", "2", "--checkpoints", "130,1000000"])
        assert code == 0
        assert [row[:2] for row in payload["rows"]] == [[130, 4], [1000000, 11]]

    def test_out_writes_file_and_not_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        assert cli.run(["count", "--k", "2", "--x", "130", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        on_disk = target.read_text(encoding="utf-8")
        cli.run(["count", "--k", "2", "--x", "130"])
        assert body_lines(on_disk) == body_lines(capsys.readouterr().out)

    def test_chebyshev_weight_selection(self, capsys):
        _, payload = run_json(
            capsys, ["chebyshev", "--k", "2", "--x", "130", "--weight", "tau"])
        assert payload["rows"][0][1] == "tau"

    def test_tail_checkpoints_are_one_walk(self, capsys, monkeypatch):
        from cubicprimes import counting
        walks = []
        original = counting._walk

        def counted_walk(*args, **kwargs):
            walks.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(counting, "_walk", counted_walk)
        # 0 is below 1; the one hit, 3^3 - 2 = 5^2, lies between 10 and 1000,
        # and 1000 repeats; no new prime power lies between 1000 and 10^9
        xs = (0, 10, 1000, 1000, 1000000, 1000000000)
        _, payload = run_json(
            capsys, ["tail", "--k", "-2", "--checkpoints", ",".join(map(str, xs))])
        assert len(walks) == 1
        assert payload["rows"] == [[x, *counting.prime_power_tail(-2, [x])[0]] for x in xs]

    @pytest.mark.parametrize("s", [1.0, 1.5])
    @pytest.mark.parametrize("rows, xs", [
        (["--checkpoints", "1000,50000,100000"], [1000, 50000, 100000]),
        # the decade rows of --x, a single one at x = 10
        (["--x", "100000"], [10, 100, 1000, 10000, 100000]),
        (["--x", "10"], [10]),
    ])
    def test_dseries_checkpoints_are_one_enumeration(self, capsys, monkeypatch, s, rows, xs):
        calls = []
        original = series._solvable_moduli

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(series, "_solvable_moduli", counted)
        _, payload = run_json(
            capsys, ["dseries", "--k", "2", "--s", str(s), *rows])
        assert len(calls) == 1
        assert payload["rows"] == [[r.x, s, r.value, r.terms_used]
                                   for r in dirichlet_partial_sum(2, s, xs)]
        assert list(payload["metadata"]) == ["command", "argv", "version", "wall_time", "k"]

    @pytest.mark.parametrize("checkpoints", ["50000,1000", "1000,1000,999", "0,1000"])
    def test_dseries_bad_checkpoints(self, capsys, checkpoints):
        argv = ["dseries", "--k", "2", "--checkpoints", checkpoints]
        assert cli.run(argv) == 2
        assert capsys.readouterr().out == ""

    def test_tail_checkpoints_must_ascend(self, capsys):
        assert cli.run(["tail", "--k", "-2", "--checkpoints", "1000000,1000"]) == 2

    def test_bad_int_list_is_usage_error(self, capsys):
        assert cli.run(["count", "--k", "2", "--checkpoints", "10,frog"]) == 2

    def test_form_wants_three_entries(self, capsys):
        assert cli.run(["epstein", "--form", "1,0", "--s", "2", "--x", "10"]) == 2


class TestReplayDeterminism:
    def test_repeat_run_identical(self, capsys):
        argv = ["dseries", "--k", "2", "--x", "10000"]
        cli.run(argv)
        first = body_lines(capsys.readouterr().out)
        cli.run(argv)
        assert body_lines(capsys.readouterr().out) == first


class TestVerifyCommand:
    def test_all_tiny_passes(self, capsys):
        assert cli.run(["verify", "--suite", "all", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[-1] == "9/9 checks passed"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_failure_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_suite",
            lambda *a, **kw: [CheckResult("stub", False, "boom")])
        assert cli.run(["verify", "--suite", "rho"]) == 4
        out = capsys.readouterr().out
        assert "FAIL stub: boom" in out
        assert "0/1 checks passed" in out

    def test_lemma4_failure_names_the_least_q_and_x(self, capsys, monkeypatch):
        # a closed form off by one at three instances; the walk over every
        # solvable q <= 300 at x = 1, q, 20000 reports the least
        original = verify.progression_weighted_sum

        def wrong(q, a, x):
            ps = original(q, a, x)
            if (q, x) in ((31, 31), (31, 20000), (62, 1)):
                return dataclasses.replace(ps, closed_form=ps.closed_form + 1)
            return ps

        monkeypatch.setattr(verify, "progression_weighted_sum", wrong)
        assert cli.run(["verify", "--suite", "lemma4"]) == 4
        want = original(31, -2, 31)
        assert (f"FAIL progression-closed-form: q=31 x=31: iterated {want.exact} "
                f"vs closed {want.closed_form + 1}\n") in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_subcommand_produces_output(name, capsys):
    assert cli.run(COMMANDS[name]) == 0
    out = capsys.readouterr().out
    if name == "verify":
        assert out.strip().endswith("checks passed")
    else:
        assert len(body_lines(out)) >= 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cubicprimes.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


@pytest.mark.parametrize("argv", [
    ["dseries", "--k", "2", "--x", "100", "--s", "400"],
    ["epstein", "--form", "1,0,27", "--s", "400", "--mu", "--x", "100"],
])
def test_large_s_raises_no_overflow_warning(argv):
    # n^400 overflows to inf, which makes the term 0 as it should; under
    # -W error a numpy overflow warning would become a traceback and exit 1
    def body(*flags):
        proc = subprocess.run([sys.executable, *flags, "-m", "cubicprimes.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        return body_lines(proc.stdout)

    assert body("-W", "error") == body()


HUGE_K = str(10**400 + 1)  # a non-cube shift far past the float range
SQUARE_K = str(4 - 10**1002)  # n = 10^334 gives 2^2, a weight past the float range
SEVEN_K = str(7 - 10**399)  # n = 10^133 gives 7; n^3 is past the float range
SHORT_K = {HUGE_K: "10^400+1", SQUARE_K: "4-10^1002", SEVEN_K: "7-10^399"}
P64 = str(2**64 + 13)  # the least prime above 2^64


EDGE_ARGVS = [
    (["constant", "--k", HUGE_K, "--pmax", "100"], 0),
    (["count", "--k", HUGE_K, "--x", "1000"], 0),
    (["chebyshev", "--k", HUGE_K, "--x", "1000"], 0),
    (["tail", "--k", HUGE_K, "--x", "1000"], 0),
    (["verify", "--suite", "eq3", "--k", HUGE_K], 0),
    # an explicit bound is used as given, down to the smallest with an instance
    (["verify", "--suite", "lemma2", "--nmax", "2"], 0),
    (["verify", "--suite", "rho", "--nmax", "1"], 0),
    (["verify", "--suite", "lemma3", "--pmax", "7"], 0),
    (["verify", "--suite", "lemma2", "--nmax", "0"], 2),
    (["verify", "--suite", "lemma2", "--nmax", "1"], 2),
    (["verify", "--suite", "lemma2", "--nmax", "-5"], 2),
    (["verify", "--suite", "rho", "--nmax", "-3"], 2),
    (["verify", "--suite", "rho", "--nmax", str(verify.RHO_SCAN_BUDGET + 1)], 3),
    (["verify", "--suite", "lemma2", "--nmax", str(verify.LEMMA2_BUDGET + 1)], 3),
    (["verify", "--suite", "lemma3", "--pmax", str(verify.GAUSS_BUDGET + 1)], 3),
    (["verify", "--suite", "lemma3", "--pmax", "0"], 2),
    (["verify", "--suite", "lemma3", "--pmax", "5"], 2),
    (["verify", "--suite", "lemma3", "--pmax", "-7"], 2),
    (["verify", "--suite", "all", "--nmax", "0"], 2),
    # a bound the suite never reads
    (["verify", "--suite", "eq3", "--nmax", "5"], 2),
    (["verify", "--suite", "lemma2", "--pmax", "5"], 2),
    (["verify", "--suite", "lemma4", "--pmax", "5"], 2),
    # a shift that the suite never reads, and one where it does
    (["verify", "--suite", "lemma3", "--k", "54"], 2),
    (["verify", "--suite", "lemma2", "--k", "2"], 2),
    (["verify", "--suite", "lemma4", "--k", "54"], 0),
    # a seed, which no suite takes: lemma4 checks every solvable modulus
    (["verify", "--suite", "lemma2", "--sample-seed", "1"], 2),
    (["verify", "--suite", "rho", "--sample-seed", "0"], 2),
    (["verify", "--suite", "eq3", "--sample-seed", "1"], 2),
    (["verify", "--suite", "lemma4", "--sample-seed", "1"], 2),
    # both flags of a pair, where one would be dropped unread, or neither
    # where one is needed, and an empty list
    (["count", "--k", "2", "--x", "1000000", "--checkpoints", "1000,100000"], 2),
    (["count", "--k", "2"], 2),
    (["tail", "--k", "-2", "--x", "1000", "--checkpoints", "1000"], 2),
    (["tail", "--k", "-2"], 2),
    (["dset", "--k", "2", "--x", "1000", "--checkpoints", "10,100"], 2),
    (["dseries", "--k", "2", "--x", "1000", "--checkpoints", "10,100"], 2),
    (["dseries", "--k", "2"], 2),
    (["constant", "--k", "2", "--pmax", "100", "--checkpoints", "100,1000"], 2),
    (["dset", "--k", "2", "--checkpoints="], 2),
    (["count", "--k", "2", "--checkpoints", ","], 2),
    # verify prints text only and takes no --format
    (["verify", "--suite", "lemma4", "--format", "json"], 2),
    (["rho", "--k", "2", "--q", "0"], 2),
    (["epstein", "--form", "0,0,0", "--s", "2", "--x", "100"], 2),
    # lattice rows whose values would pass int64: 2^62 u^2 at u = +-2, a
    # wide non-reduced form, and a coefficient past int64 itself
    (["epstein", "--form", f"{2**62},1,1", "--s", "2", "--x", "100"], 3),
    (["epstein", "--form", "1,2000000,1000000000001", "--s", "2", "--x", "10000000"], 3),
    (["epstein", "--form", "1,2000000,1000000000001", "--s", "1", "--mu", "--x", "10000000"], 3),
    (["epstein", "--form", "10000000000000000000,1,1", "--s", "2", "--x", "10"], 3),
    (["lemma4", "--q", "0", "--a", "1", "--x", "10"], 2),
    (["dset", "--k", "2", "--x", "0"], 2),
    (["dseries", "--k", "2", "--x", "0"], 2),
    (["dseries", "--k", "2", "--x", "0", "--s", "1.5"], 2),
    (["count", "--k", "2", "--x", "7"], 2),
    (["chebyshev", "--k", "2", "--x", str(2**64)], 3),
    # an exponent that only the power weight reads
    (["chebyshev", "--k", "2", "--x", "1000", "--weight", "tau", "--exponent", "-1"], 2),
    # an index weight |n| or |n|^exponent that cannot be a float
    (["tail", "--k", SQUARE_K, "--x", "1000"], 3),
    (["chebyshev", "--k", SQUARE_K, "--x", "1000"], 3),
    (["chebyshev", "--k", SEVEN_K, "--x", "1000", "--exponent", "3"], 3),
    (["chebyshev", "--k", "2", "--x", "1000000", "--exponent", "100000"], 3),
    (["verify", "--suite", "eq3", "--k", SQUARE_K], 3),
    # a primality test past 2^64, where no proof covers the bases; a modulus
    # that trial division factors needs none
    (["residue", "--a", "2", "--p", P64], 3),
    (["rho", "--k", "2", "--q", P64], 3),
    (["rho", "--k", "2", "--q", str(2**65)], 0),
]


# refusals of a parameter that is named apart from its flag, or of a flag
# the command does not take: the message must name the flag that was typed
NAMES_FLAG = {
    ("verify", "--suite", "lemma4", "--format", "json"): "--format",
    ("verify", "--suite", "lemma3", "--k", "54"): "--k",
    ("verify", "--suite", "lemma2", "--k", "2"): "--k",
    ("verify", "--suite", "lemma2", "--sample-seed", "1"): "--sample-seed",
    ("verify", "--suite", "rho", "--sample-seed", "0"): "--sample-seed",
    ("verify", "--suite", "eq3", "--sample-seed", "1"): "--sample-seed",
    ("verify", "--suite", "lemma4", "--sample-seed", "1"): "--sample-seed",
    ("dset", "--k", "2", "--x", "1000", "--checkpoints", "10,100"): "--checkpoints",
    ("dseries", "--k", "2", "--x", "1000", "--checkpoints", "10,100"): "--checkpoints",
    ("verify", "--suite", "lemma2", "--nmax", "0"): "--nmax",
    ("verify", "--suite", "lemma2", "--nmax", "1"): "--nmax",
    ("verify", "--suite", "lemma2", "--nmax", "-5"): "--nmax",
    ("verify", "--suite", "lemma2", "--nmax", str(verify.LEMMA2_BUDGET + 1)): "--nmax",
    ("verify", "--suite", "all", "--nmax", "0"): "--nmax",
    ("verify", "--suite", "rho", "--nmax", "-3"): "--nmax",
    ("verify", "--suite", "rho", "--nmax", str(verify.RHO_SCAN_BUDGET + 1)): "--nmax",
    ("verify", "--suite", "lemma3", "--pmax", "0"): "--pmax",
    ("verify", "--suite", "lemma3", "--pmax", "5"): "--pmax",
    ("verify", "--suite", "lemma3", "--pmax", "-7"): "--pmax",
    ("verify", "--suite", "lemma3", "--pmax", str(verify.GAUSS_BUDGET + 1)): "--pmax",
}


@pytest.mark.parametrize("argv,code", EDGE_ARGVS, ids=[
    " ".join(SHORT_K.get(a, a) for a in argv) for argv, _ in EDGE_ARGVS])
def test_edge_argv_exits_without_traceback(argv, code):
    proc = subprocess.run([sys.executable, "-m", "cubicprimes.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr.startswith("error:") and proc.stdout == ""
    assert NAMES_FLAG.get(tuple(argv), "") in proc.stderr


@pytest.mark.parametrize("argv", [
    ["count", "--k", "2", "--x", "1000000"],
    ["dset", "--k", "2", "--x", "1000"],
    ["verify", "--suite", "rho", "--nmax", "100"],
])
def test_benchmark_traced_job_runs(tmp_path, argv):
    # the benchmark's job runner wraps each name of job.TRACED, found by
    # getattr, and sizes sieve_range's result from its dataclass fields, so
    # a renamed function or another return type fails every traced run
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "job.py"), "--trace", str(tmp_path / "t"),
         "--", *argv],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    spec = importlib.util.spec_from_file_location("job", root / "perfbench" / "job.py")
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    totals = json.loads((tmp_path / "t.json").read_text())
    assert list(totals["calls"]) == list(job.TRACED)
    assert totals["calls"]["cli.run"] == 1
