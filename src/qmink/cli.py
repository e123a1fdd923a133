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
all checks passed, 1 a check failed, 2 usage or parse error, 3 internal
error (a traceback, then one `qmink: internal error:` line); a reader that
closes stdout early changes neither the code nor stderr.  Only `check`
and `report-all` import the suites, so `normalize` starts without the
numeric modules (and `traceback` is imported for exit 3 only).  A check
loads what its suite reads first; the text format prints that as a line.
`report-all` runs the exact suites in a forked child beside the numeric
ones where it can (see `suites.run_all`); its output is the same either way.
"""

import argparse
import contextlib
import math
import os
import re
import sys
import time

from .dsl import (BUILTIN_NAMES, DslError, builtin, builtin_algebra, parse,
                  parse_expression, render_poly)
from .ncalg import StepLimitExceeded
from .scalars import EvalOverflowError

USAGE_ERROR, INTERNAL_ERROR = 2, 3


def _file_presentations(path: str) -> dict:
    """The algebras in scope in FILE (imported ones included): a .qalg
    path, or a bare builtin name when no such file exists.  Messages name
    FILE as typed."""
    if not os.path.exists(path):
        name = path.removesuffix(".qalg")
        if os.path.basename(path) == path and name in BUILTIN_NAMES:
            return builtin(name).presentations
        raise DslError(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8, ...
        reason = getattr(exc, "strerror", None) or exc
        raise DslError(f"cannot read {path}: {reason}") from None
    presentations = parse(text, filename=path).presentations
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
    _print(render_poly(pres.normalize(poly), pres))
    return 0


def _print(text: str) -> None:
    """Print a command's output.  A reader that has closed stdout (as `| head`
    does) is no error: the exit code stays the command's own, and nothing
    goes to stderr."""
    try:
        print(text, flush=True)
    except BrokenPipeError:  # send the unwritten rest, flushed at exit, nowhere
        with contextlib.suppress(OSError):  # a stdout with no file descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _emit(bundle, fmt: str) -> int:
    _print(bundle.render_json() if fmt == "json" else bundle.render_text())
    return 0 if bundle.passed else 1


def _tol(args) -> float:
    """--tol, which must be finite and > 0: NaN or inf would pass any residual."""
    if not (0 < args.tol < math.inf):
        raise ValueError(f"tol must be finite and > 0, not {args.tol!r}")
    return args.tol


def _presentation(suites, args):
    if args.file is not None:
        what, found = args.file, _file_presentations(args.file)
    else:
        names = suites.QUANTUM if args.algebra is None else (args.algebra,)
        what, found = ", ".join(names), {n: builtin_algebra(n) for n in names}
    presentations = _pick_algebra(found, args.algebra)
    return what, lambda: suites.run_presentation_suite(
        samples=args.samples, seed=args.seed, presentations=presentations)


def _loaded(*names, job):
    """The named builtins, loaded, and the job of a suite that reads them."""
    for name in names:
        builtin(name)
    return ", ".join(names), job


def _cocycle(suites, args):
    return None, lambda: suites.run_cocycle_suite(
        s_values=args.s or suites.ACCEPTANCE_S_VALUES, samples=args.samples,
        seed=args.seed, tol=_tol(args), radius=args.radius)


def _pq(suites, args):
    tol = _tol(args)
    if (args.p is None) != (args.q is None):
        raise DslError("--p and --q must be given together")
    pairs = ([(args.p, args.q)] if args.p is not None
             else suites.ACCEPTANCE_PQ_PAIRS)
    return None, lambda: suites.run_pq_suite(
        pairs=pairs, samples=args.samples, seed=args.seed, tol=tol,
        s_values=args.s or suites.ACCEPTANCE_S_VALUES)


# check -> (runner: (suites module, args) -> (what it loaded or None, the
# suite's job), the flags it reads).  A runner loads what its suite reads,
# so that the suite's printed time is its own work.
CHECKS = {
    "presentation": (_presentation, "--file --algebra --samples --seed --format"),
    "hopf": (lambda suites, _: _loaded(
        "lorentz", "classical", job=suites.run_hopf_suite), "--seed --format"),
    "coaction": (lambda suites, _: _loaded(
        "coaction", "classical", job=suites.run_coaction_suite), "--seed --format"),
    "cocycle": (_cocycle, "--s --radius --samples --seed --tol --format"),
    "pq": (_pq, "--p --q --s --samples --seed --tol --format"),
}


def cmd_check(args) -> int:
    from . import suites
    from .reports import ReportBundle
    start = time.perf_counter()
    what, job = args.run(suites, args)
    load = suites.load_line(what, start) if what else None
    return _emit(ReportBundle([suites.timed(job)], seed=args.seed, load=load),
                 args.format)


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
    # argparse's own pattern for a negative value misses -1e-3 and -1E2
    parser._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
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
    parser.set_defaults(check_parser=check)
    checks = check.add_subparsers(dest="which", required=True)
    for name, (run, flags) in CHECKS.items():
        _command(checks, name, flags, func=cmd_check, run=run)
    checks.choices["cocycle"].set_defaults(samples=10000)
    _command(sub, "report-all", "--samples --cocycle-samples --seed --tol --format",
             func=cmd_report_all, help="run the full acceptance suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse would read a flag placed where the command or check name goes,
    # with its value, as that name: name the flag instead
    words = [*(sys.argv[1:] if argv is None else argv), "", ""]
    nested = words[0] == "check"
    flag = words[nested].partition("=")[0]
    if flag in FLAGS:
        (parser.get_default("check_parser") if nested else parser).error(
            f"{flag} goes after the {'check name' if nested else 'command'}")
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (DslError, EvalOverflowError, StepLimitExceeded, ValueError) as exc:
        print(f"qmink: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # a fault of qmink's, not a failed check
        import traceback
        traceback.print_exc()
        print(f"qmink: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
