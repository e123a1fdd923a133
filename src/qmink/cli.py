"""Command-line front end.

    qmink normalize FILE EXPR [--algebra NAME]
    qmink check presentation [--file FILE] [--algebra NAME] [--samples N]
    qmink check hopf | coaction
    qmink check cocycle [--s S]... [--radius R] [--samples N] [--tol T]
    qmink check pq [--p P --q Q] [--s S]... [--samples N] [--tol T]
    qmink report-all [--samples N] [--cocycle-samples N] [--tol T]

Every `check` and `report-all` also take --seed S and --format text|json.
A command takes only the flags that can change its output, in full and
after it; any other flag is a usage error.  FILE is a .qalg path or, when no
such file exists, a bare builtin name (lorentz, minkowski, coaction,
classical, with or without .qalg, and no directory part).  Exit codes: 0
all checks passed, 1 a check failed, 2 usage or parse error.  Only `check`
and `report-all` import the suites, so `normalize` starts without the
numeric modules.  `report-all` runs the exact suites in a forked child
beside the numeric ones where it can (see `suites.run_all`); its output
is the same either way.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .dsl import (BUILTIN_NAMES, DslError, builtin, parse, parse_expression,
                  render_poly)
from .ncalg import StepLimitExceeded
from .scalars import EvalOverflowError

USAGE_ERROR = 2


def _file_presentations(file_arg: str) -> dict:
    """The algebras in scope in FILE (imported ones included): a .qalg
    path, or a bare builtin name when no such file exists."""
    path = Path(file_arg)
    if not path.exists():
        name = file_arg.removesuffix(".qalg")
        if path.name == file_arg and name in BUILTIN_NAMES:
            return builtin(name).presentations
        raise DslError(f"no such file: {file_arg}")
    try:
        text = path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8, ...
        reason = getattr(exc, "strerror", None) or exc
        raise DslError(f"cannot read {path}: {reason}") from None
    presentations = parse(text, filename=str(path)).presentations
    if not presentations:
        raise DslError(f"{path} declares no algebra")
    return presentations


def _pick_algebra(presentations: dict, algebra: str | None) -> dict:
    """The algebras --algebra selects from a file's: all, or the named one."""
    if algebra is None:
        return presentations
    if algebra not in presentations:
        raise DslError(f"file has no algebra named {algebra!r} "
                       f"(found: {', '.join(presentations)})")
    return {algebra: presentations[algebra]}


def cmd_normalize(args) -> int:
    presentations = _pick_algebra(_file_presentations(args.file), args.algebra)
    if len(presentations) > 1:
        raise DslError(f"file declares several algebras "
                       f"({', '.join(presentations)}); pick one with --algebra")
    (pres,) = presentations.values()
    poly = parse_expression(args.expression, pres)
    print(render_poly(pres.normalize(poly), pres))
    return 0


def _emit(bundle, fmt: str) -> int:
    print(bundle.render_json() if fmt == "json" else bundle.render_text())
    return 0 if bundle.passed else 1


def _builtin_presentation(name: str):
    for file in BUILTIN_NAMES:
        if name in builtin(file).presentations:
            return builtin(file).presentation(name)
    raise DslError(f"no builtin algebra named {name!r}")


def _tol(args) -> float:
    """--tol, which must be finite and > 0: NaN or inf would pass any residual."""
    if not (0 < args.tol < math.inf):
        raise ValueError(f"tol must be finite and > 0, not {args.tol!r}")
    return args.tol


def _presentation(suites, args):
    presentations = None
    if args.file is not None:
        presentations = _pick_algebra(_file_presentations(args.file),
                                      args.algebra)
    elif args.algebra is not None:
        presentations = {args.algebra: _builtin_presentation(args.algebra)}
    return suites.run_presentation_suite(samples=args.samples, seed=args.seed,
                                         presentations=presentations)


def _cocycle(suites, args):
    return suites.run_cocycle_suite(
        s_values=args.s or suites.ACCEPTANCE_S_VALUES, samples=args.samples,
        seed=args.seed, tol=_tol(args), radius=args.radius)


def _pq(suites, args):
    tol = _tol(args)
    if (args.p is None) != (args.q is None):
        raise DslError("--p and --q must be given together")
    pairs = ([(args.p, args.q)] if args.p is not None
             else suites.ACCEPTANCE_PQ_PAIRS)
    return suites.run_pq_suite(
        pairs=pairs, samples=args.samples, seed=args.seed, tol=tol,
        s_values=args.s or suites.ACCEPTANCE_S_VALUES)


# check -> (runner: (suites module, args) -> report, the flags it reads)
CHECKS = {
    "presentation": (_presentation, "--file --algebra --samples --seed --format"),
    "hopf": (lambda suites, _: suites.run_hopf_suite(), "--seed --format"),
    "coaction": (lambda suites, _: suites.run_coaction_suite(), "--seed --format"),
    "cocycle": (_cocycle, "--s --radius --samples --seed --tol --format"),
    "pq": (_pq, "--p --q --s --samples --seed --tol --format"),
}


def cmd_check(args) -> int:
    from . import suites
    from .reports import ReportBundle
    report = suites.timed(lambda: args.run(suites, args))
    return _emit(ReportBundle([report], seed=args.seed), args.format)


def cmd_report_all(args) -> int:
    from . import suites
    bundle = suites.run_all(samples=args.samples, cocycle_samples=args.cocycle_samples,
                            seed=args.seed, tol=_tol(args))
    return _emit(bundle, args.format)


# Every flag a command can take; each command declares the ones it reads.
FLAGS = {
    "--file": dict(help=".qalg file or builtin name"),
    "--algebra": dict(help="the one algebra to use from FILE (or the builtins)"),
    "--p": dict(type=float, help="first model parameter"),
    "--q": dict(type=float, help="second model parameter"),
    "--s": dict(type=float, action="append", help="deformation parameter (repeatable)"),
    "--radius": dict(type=float, default=2.0, help="sampling disk radius"),
    "--samples": dict(type=int, default=1000,
                      help="sample count for randomized checks (default: %(default)s)"),
    "--cocycle-samples": dict(type=int, default=10000,
                              help="the cocycle suite's sample count "
                                   "(default: %(default)s)"),
    "--seed": dict(type=int, default=0, help="RNG seed (echoed in reports)"),
    "--tol": dict(type=float, default=1e-12, help="pass/fail residual threshold"),
    "--format": dict(choices=("text", "json"), default="text"),
}


def _command(sub, name, flags, help=None, **defaults):
    """A subcommand that takes exactly `flags` (a space-separated list),
    each spelled in full, so a flag it does not read is a usage error,
    reported with this subcommand's usage line."""
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    for flag in flags.split():
        parser.add_argument(flag, **FLAGS[flag])
    parser.set_defaults(parser=parser, **defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmink",
        description="verification engine for the deformed Lorentz/Minkowski "
                    "algebras, their coaction, and the operator model")
    sub = parser.add_subparsers(dest="command", required=True)
    p_norm = _command(sub, "normalize", "--algebra", func=cmd_normalize,
                      help="print the normal form of an expression")
    p_norm.add_argument("file", help=".qalg file or builtin name")
    p_norm.add_argument("expression", help="polynomial expression, e.g. 'd a'")
    check = sub.add_parser("check", help="run one verification suite")
    checks = check.add_subparsers(dest="which", required=True)
    for name, (run, flags) in CHECKS.items():
        _command(checks, name, flags, func=cmd_check, run=run)
    checks.choices["cocycle"].set_defaults(samples=10000)
    _command(sub, "report-all", "--samples --cocycle-samples --seed --tol --format",
             func=cmd_report_all, help="run the full acceptance suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    lead = next(iter(sys.argv[1:] if argv is None else argv), "").partition("=")[0]
    if lead in FLAGS:  # else argparse would read its value as the command
        parser.error(f"{lead} goes after the command")
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (DslError, EvalOverflowError, StepLimitExceeded, ValueError) as exc:
        print(f"qmink: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
