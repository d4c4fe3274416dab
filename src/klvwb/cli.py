"""Command line front end.

    klvwb <validate|klv|act|cexp|ext|check|list-builtins>
          [--datum FILE | --builtin NAME] [--format table|csv|json]
          [--out PATH] [--word s1,s2,...] [--basis T|C] [--param ID]
          [--tau ID --gamma ID] [--window N]

Exit codes: 0 success, 1 validation failure, 2 computation failure
(non-geometric datum, missing costandard data), 3 usage error.
All orderings are canonical, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import datum as dm
from . import hmodule as hm
from . import klv as klvmod
from .errors import (
    DatumError,
    DatumFormatError,
    DatumInvalid,
    DomainError,
    MissingCostandard,
    NonGeometricDatum,
    UnsupportedType,
)
from .laurent import render_poly

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_COMPUTE = 2
EXIT_USAGE = 3

# --window cap: each Ext row lists up to this many degrees, and the series
# expansion behind it is linear in the window
MAX_WINDOW = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _window(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {n}")
    if n > MAX_WINDOW:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_WINDOW}, got {n}")
    return n


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="klvwb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_datum=True):
        if needs_datum:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--datum", metavar="FILE", help="datum JSON file")
            src.add_argument("--builtin", metavar="NAME", help="builtin datum name")
        p.add_argument(
            "--format", choices=["table", "csv", "json"], default="table"
        )
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    common(sub.add_parser("validate", help="run the datum validation checks"))
    common(sub.add_parser("klv", help="emit the table of self-dual basis polynomials"))

    p_act = sub.add_parser("act", help="apply a T- or C-word to a basis vector")
    common(p_act)
    p_act.add_argument("--word", default="", metavar="s1,s2,...", help="1-based generator word")
    p_act.add_argument("--basis", choices=["T", "C"], default="T")
    p_act.add_argument("--param", required=True, metavar="ID", help="standard basis vector")

    p_cexp = sub.add_parser("cexp", help="expansion of C_w . L_tau in the self-dual basis")
    common(p_cexp)
    p_cexp.add_argument("--word", default="", metavar="s1,s2,...", help="word for w")
    p_cexp.add_argument("--tau", metavar="ID", help="restrict to one parameter")

    p_ext = sub.add_parser("ext", help="Ext weight series (or IC series without --gamma)")
    common(p_ext)
    p_ext.add_argument("--tau", metavar="ID")
    p_ext.add_argument("--gamma", metavar="ID")
    p_ext.add_argument("--window", type=_window, default=10)

    p_check = sub.add_parser("check", help="run every invariant suite")
    common(p_check)
    p_check.add_argument("--window", type=_window, default=10)

    common(sub.add_parser("list-builtins", help="list builtin datum names"), needs_datum=False)
    return parser


def _resolve_datum(args) -> dm.OrbitDatum:
    if args.builtin:
        return dm.builtin_datum(args.builtin)
    try:
        with open(args.datum, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatumFormatError(f"cannot read {args.datum}: {exc}") from None
    try:
        return dm.load_datum(text)
    except UnsupportedType as exc:
        # a bad Coxeter spec inside a file is the file's fault, not usage
        raise DatumFormatError(str(exc)) from None


def _parse_word(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        word = [int(part) - 1 for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"bad --word {text!r}") from None
    if any(s < 0 for s in word):
        raise _UsageError(f"bad --word {text!r}")
    return word


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _tabulate(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _render_rows(args, header, rows) -> str:
    if args.format == "csv":
        return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if args.format == "json":
        return (
            json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
        )
    return _tabulate(header, rows)


def _emit_report(args, d, report, column, verdicts) -> int:
    """One status row per check; the table form ends with a verdict line,
    verdicts[report.ok]."""
    rows = [
        ("PASS" if c.passed else "FAIL", c.name, c.detail) for c in report.checks
    ]
    text = _render_rows(args, ("status", column, "detail"), rows)
    if args.format == "table":
        text += f"datum {d.name}: {verdicts[report.ok]}\n"
    _emit(args, text)
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_validate(args, d: dm.OrbitDatum) -> int:
    return _emit_report(args, d, dm.validate_datum(d), "check", ("INVALID", "VALID"))


def _cmd_klv(args, d: dm.OrbitDatum) -> int:
    table = klvmod.klv_table(d)
    rows = [(g, dl, render_poly(p)) for g, dl, p in table.rows()]
    _emit(args, _render_rows(args, ("gamma", "delta", "P"), rows))
    return EXIT_OK


def _cmd_act(args, d: dm.OrbitDatum) -> int:
    word = _parse_word(args.word)
    if args.param not in d.param_by_id:
        raise _UsageError(f"unknown parameter {args.param!r}")
    token = f"{args.basis}[{','.join(str(s + 1) for s in word)}]"
    result = hm.act(token, hm.basis_vector(d, args.param), d)
    if args.format == "table":
        _emit(args, f"{token} . m[{args.param}] = {result}\n")
        return EXIT_OK
    rows = [(pid, render_poly(c)) for pid, c in result.items_in_datum_order()]
    _emit(args, _render_rows(args, ("param", "coeff"), rows))
    return EXIT_OK


def _cmd_cexp(args, d: dm.OrbitDatum) -> int:
    word = _parse_word(args.word)
    w = d.coxeter.from_word(word)
    wtok = d.coxeter.element_token(w)
    taus = [args.tau] if args.tau else [p.id for p in d.basis]
    for tau in taus:
        if tau not in d.param_by_id:
            raise _UsageError(f"unknown parameter {tau!r}")
    rows = []
    for tau in taus:
        expansion = klvmod.c_expansion(d, w, tau)
        for p in d.basis:
            if p.id in expansion:
                rows.append((wtok, tau, p.id, render_poly(expansion[p.id])))
    _emit(args, _render_rows(args, ("w", "tau", "gamma", "c"), rows))
    return EXIT_OK


def _cmd_ext(args, d: dm.OrbitDatum) -> int:
    from . import extseries  # deferred, like checks: no other command needs it

    if args.gamma and not args.tau:
        raise _UsageError("--gamma requires --tau")
    for pid in (args.tau, args.gamma):
        if pid and pid not in d.param_by_id:
            raise _UsageError(f"unknown parameter {pid!r}")
    rows = []
    if args.tau and args.gamma:
        rows.append(extseries.series_row(extseries.ext_poincare(d, args.tau, args.gamma), args.window))
    elif args.tau:
        rows.append(extseries.series_row(extseries.ic_cohomology(d, args.tau), args.window))
    else:
        rows.extend(extseries.sweep_rows(d, args.window))
    _emit(args, _render_rows(args, ("tau", "gamma", "series", "first_degrees"), rows))
    return EXIT_OK


def _cmd_check(args, d: dm.OrbitDatum) -> int:
    from . import checks  # deferred: only check runs the suites

    report = checks.run_check_suites(d, window=args.window)
    return _emit_report(args, d, report, "suite", ("FAILED", "OK"))


def _cmd_list_builtins(args) -> int:
    rows = [(name,) for name in dm.BUILTIN_NAMES]
    _emit(args, _render_rows(args, ("builtin",), rows))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "klv": _cmd_klv,
    "act": _cmd_act,
    "cexp": _cmd_cexp,
    "ext": _cmd_ext,
    "check": _cmd_check,
}


def _run(args) -> int:
    if args.command == "list-builtins":
        return _cmd_list_builtins(args)
    d = _resolve_datum(args)
    try:
        return _COMMANDS[args.command](args, d)
    finally:
        # the memoized tables refer back to d, so without this the datum
        # and its tables outlive the call until the cyclic collector runs
        d._cache.clear()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        return _run(parser.parse_args(argv))
    except _UsageError as exc:
        print(f"klvwb: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatumFormatError, DatumInvalid) as exc:
        print(f"klvwb: invalid datum: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (MissingCostandard, NonGeometricDatum) as exc:
        print(f"klvwb: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except UnsupportedType as exc:
        print(f"klvwb: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatumError, DomainError) as exc:
        print(f"klvwb: invalid datum: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
