"""Command line front end.

Every subcommand but verify prints one table, as CSV (default) or JSON.
CSV output is metadata comment lines starting with '#', then a header
line, then rows, LF-terminated, with reals at 15 significant digits; the
body below the metadata block is reproducible byte for byte for a fixed
library version. verify prints PASS/FAIL lines as text and takes no
--format.

Exit codes: 0 success, 2 usage or domain error, 3 capacity or resource
limit, 4 internal cross-check failure. An --out path that cannot be opened
is a usage error.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from . import __version__
from .arith import factorize
from .counting import (
    Weight,
    count_table,
    prime_power_tail,
    progression_weighted_sum,
    singular_series,
    weighted_lambda_sum,
)
from .dset import dset_density
from .errors import CapacityError, ConsistencyError, DomainError, ResourceError
from .residues import (
    BRUTE_FORCE_BUDGET,
    QuadraticForm,
    cubic_residue_euler,
    gauss_classify,
    rho,
    rho_bruteforce,
)
from .series import (
    dirichlet_partial_sum,
    epstein_mu_sum,
    epstein_zeta_partial,
)
from .verify import SUITES, run_suite


@dataclass
class OutputTable:
    command: str
    header: tuple[str, ...]
    rows: list[tuple]
    extra: dict[str, Any] = field(default_factory=dict)
    wall_time: float = 0.0


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def render_csv(table: OutputTable, argv: list[str]) -> str:
    lines = [
        f"# command={table.command}",
        f"# argv={shlex.join(argv)}",
        f"# version={__version__}",
        f"# wall_time={table.wall_time:.6f}",
    ]
    lines.extend(f"# {key}={_fmt(val)}" for key, val in table.extra.items())
    lines.append(",".join(table.header))
    lines.extend(",".join(_fmt(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def render_json(table: OutputTable, argv: list[str]) -> str:
    obj = {
        "metadata": {
            "command": table.command,
            "argv": list(argv),
            "version": __version__,
            "wall_time": table.wall_time,
            **table.extra,
        },
        "header": list(table.header),
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(obj, indent=2) + "\n"


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    return values


def _form_triple(text: str) -> tuple[int, int, int]:
    parts = _int_list(text)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--form wants a,b,c, got {text!r}")
    return parts[0], parts[1], parts[2]


def _log_checkpoints(x_max: int) -> list[int]:
    cps = []
    p = 10
    while p < x_max:
        cps.append(p)
        p *= 10
    cps.append(x_max)
    return cps


def _cmd_count(args: argparse.Namespace) -> OutputTable:
    extra = {"k": args.k}
    records = count_table(args.k, args.checkpoints or [args.x], p_cutoff=args.pmax, stats=extra)
    rows = [(r.x, r.observed, r.predicted, r.ratio, r.p_cutoff) for r in records]
    return OutputTable(
        "count", ("x", "observed", "predicted", "ratio", "p_cutoff"), rows, extra=extra)


def _cmd_constant(args: argparse.Namespace) -> OutputTable:
    cutoffs = args.checkpoints or [args.pmax]
    if sorted(cutoffs) != cutoffs:
        raise DomainError("cutoffs must be ascending")
    rows = [(args.k, c, singular_series(args.k, c)) for c in cutoffs]
    return OutputTable("constant", ("k", "p_cutoff", "value"), rows)


def _cmd_residue(args: argparse.Namespace) -> OutputTable:
    cls = cubic_residue_euler(args.a, args.p)
    branch = witness_u = witness_v = None
    if args.a == 2:
        gc = gauss_classify(args.p)
        branch = gc.branch.value
        if gc.witness is not None:
            witness_u, witness_v = gc.witness
    rows = [(args.a, args.p, cls.tag.value, cls.exponent, branch, witness_u, witness_v)]
    return OutputTable(
        "residue",
        ("a", "p", "class", "exponent", "branch", "witness_u", "witness_v"),
        rows)


def _cmd_rho(args: argparse.Namespace) -> OutputTable:
    squarefree = args.q == 1 or factorize(args.q).is_squarefree
    formula = rho(args.k, args.q) if squarefree else None
    scan = None
    if args.q <= BRUTE_FORCE_BUDGET:
        scan = rho_bruteforce(args.k, args.q)
    agree = None
    if formula is not None and scan is not None:
        agree = int(formula == scan)
    rows = [(args.k, args.q, int(squarefree), formula, scan, agree)]
    return OutputTable(
        "rho", ("k", "q", "squarefree", "rho", "scan", "agree"), rows)


def _cmd_dset(args: argparse.Namespace) -> OutputTable:
    rows = dset_density(args.k, args.checkpoints or _log_checkpoints(args.x))
    return OutputTable("dset", ("x", "members", "ratio"), rows, extra={"k": args.k})


def _cmd_dseries(args: argparse.Namespace) -> OutputTable:
    records = dirichlet_partial_sum(args.k, args.s, args.checkpoints or _log_checkpoints(args.x))
    rows = [(r.x, args.s, r.value, r.terms_used) for r in records]
    return OutputTable(
        "dseries", ("x", "s", "value", "terms_used"), rows, extra={"k": args.k})


def _cmd_epstein(args: argparse.Namespace) -> OutputTable:
    a, b, c = args.form
    form = QuadraticForm(a, b, c)
    if args.mu:
        kind = "mobius"
        value = epstein_mu_sum(form, args.s, args.x)
    else:
        kind = "lattice"
        value = epstein_zeta_partial(form, args.s, args.x)
    rows = [(a, b, c, args.s, args.x, kind, value)]
    return OutputTable(
        "epstein", ("a", "b", "c", "s", "n_max", "kind", "value"), rows)


def _cmd_chebyshev(args: argparse.Namespace) -> OutputTable:
    weight = Weight(args.weight, args.exponent)
    record = weighted_lambda_sum(args.k, weight, args.x)
    rows = [(record.x, str(record.weight), record.value, record.tail_value, record.bound)]
    return OutputTable(
        "chebyshev", ("x", "weight", "value", "tail", "bound"), rows,
        extra={"k": args.k})


def _cmd_lemma4(args: argparse.Namespace) -> OutputTable:
    ps = progression_weighted_sum(args.q, args.a, args.x)
    rows = [(
        ps.q, ps.a, ps.x, len(ps.roots), ps.exact, ps.closed_form, ps.leading,
        ";".join(str(r) for r in ps.roots),
    )]
    return OutputTable(
        "lemma4",
        ("q", "a", "x", "rho", "exact", "closed_form", "leading", "roots"),
        rows)


def _cmd_tail(args: argparse.Namespace) -> OutputTable:
    xs = args.checkpoints or [args.x]
    rows = [(x, tail, bound) for x, (tail, bound) in zip(xs, prime_power_tail(args.k, xs))]
    return OutputTable("tail", ("x", "tail", "bound"), rows, extra={"k": args.k})


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    results = run_suite(args.suite, scale=args.scale, n_max=args.nmax, p_max=args.pmax, k=args.k)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", 0 if passed == len(results) else 4


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose refusals start with "error:", as the
    commands' own refusals do, with the usage line after the message."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubicprimes",
        description="Primes of the form n^3 + k: counts, densities, partial sums.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, table: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        if table:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="write output to this path instead of stdout")
        return sp

    def x_or_checkpoints(sp: argparse.ArgumentParser, x_help: str) -> None:
        xs = sp.add_mutually_exclusive_group(required=True)
        xs.add_argument("--x", type=int, help=x_help)
        xs.add_argument("--checkpoints", type=_int_list, help="one row at each listed x")

    sp = add("count", _cmd_count, "count primes n^3 + k up to x against the prediction")
    sp.add_argument("--k", type=int, required=True)
    x_or_checkpoints(sp, "one row at x")
    sp.add_argument("--pmax", type=int, default=10**6,
                    help="prime cutoff for the predicted constant")

    sp = add("constant", _cmd_constant, "singular series partial product")
    sp.add_argument("--k", type=int, required=True)
    cutoffs = sp.add_mutually_exclusive_group()
    cutoffs.add_argument("--pmax", type=int, default=10**6)
    cutoffs.add_argument("--checkpoints", type=_int_list,
                         help="report the product at several prime cutoffs")

    sp = add("residue", _cmd_residue, "cubic residuacity of a mod p")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = add("rho", _cmd_rho, "roots of x^3 + k mod q, formula vs scan")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)

    sp = add("dset", _cmd_dset, "solvable-moduli counts and density")
    sp.add_argument("--k", type=int, required=True)
    x_or_checkpoints(sp, "decade rows up to x")

    sp = add("dseries", _cmd_dseries, "partial sums of mu(n) log n / n^s over solvable moduli")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=float, default=1.0)
    x_or_checkpoints(sp, "decade rows up to x")

    sp = add("epstein", _cmd_epstein, "partial Epstein zeta values of a binary form")
    sp.add_argument("--form", type=_form_triple, required=True,
                    help="form coefficients a,b,c for a u^2 + b uv + c v^2")
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--x", type=int, required=True, help="largest represented value")
    sp.add_argument("--mu", action="store_true",
                    help="weight each represented value by its Mobius factor")

    sp = add("chebyshev", _cmd_chebyshev, "weighted Mangoldt sum over the values n^3 + k")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--weight", choices=("power", "totient", "sigma", "tau"),
                    default="power")
    sp.add_argument("--exponent", type=int,
                    help="exponent for the power weight (default 1)")

    sp = add("lemma4", _cmd_lemma4, "index sum over the classes solving n^3 = a mod q")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--x", type=int, required=True)

    sp = add("tail", _cmd_tail, "prime-power part of the weighted sum, with its bound")
    sp.add_argument("--k", type=int, required=True)
    x_or_checkpoints(sp, "one row at x")

    sp = add("verify", _cmd_verify, "run a named self-check suite", table=False)
    sp.add_argument("--suite", choices=SUITES, required=True)
    sp.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    sp.add_argument("--nmax", type=int,
                    help="bound for lemma2, rho and all, at least 2 (rho alone: 1); "
                         "other suites refuse it")
    sp.add_argument("--pmax", type=int,
                    help="bound for lemma3 and all, at least 7; other suites refuse it")
    sp.add_argument("--k", type=int,
                    help="shift for rho, eq3, lemma4 and all (default 2); other suites refuse it")

    return parser


def _emit(text: str, out: str | None, code: int) -> int:
    """Write text to out (stdout when None) and pass code on, or return 2
    when out cannot be opened."""
    if not out:
        sys.stdout.write(text)
        return code
    try:
        fh = open(out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with fh:
        fh.write(text)
    return code


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        result = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if isinstance(result, tuple):
        text, code = result
        return _emit(text, args.out, code)
    result.wall_time = time.perf_counter() - started
    render = render_csv if args.format == "csv" else render_json
    return _emit(render(result, argv), args.out, 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
