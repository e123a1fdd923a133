"""Command-line front end.

    qmink normalize FILE EXPR [--algebra NAME]
    qmink check {presentation|hopf|coaction|cocycle|pq} [options]
    qmink report-all [options]

FILE may be a path to a .qalg source or the name of a builtin (lorentz,
minkowski, coaction, classical, with or without the .qalg suffix).  Exit
codes: 0 all checks passed, 1 a check failed, 2 usage or parse error.
Only `check` and `report-all` import the suites, so `normalize` starts
without the numeric modules.  `report-all` runs the exact suites in a
forked child beside the numeric ones where it can (see `suites.run_all`);
its output is the same either way.
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


def _file_presentations(path: Path) -> dict:
    """The algebras in scope in a .qalg file (imported ones included)."""
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


def _resolve_presentation(file_arg: str, algebra: str | None):
    path = Path(file_arg)
    stem = path.name.removesuffix(".qalg")
    if not path.exists() and stem in BUILTIN_NAMES:
        presentations = builtin(stem).presentations
    elif not path.exists():
        raise DslError(f"no such file or builtin: {file_arg}")
    else:
        presentations = _file_presentations(path)
    presentations = _pick_algebra(presentations, algebra)
    if len(presentations) == 1:
        return next(iter(presentations.values()))
    raise DslError(f"file declares several algebras "
                   f"({', '.join(presentations)}); pick one with --algebra")


def cmd_normalize(args) -> int:
    pres = _resolve_presentation(args.file, args.algebra)
    poly = parse_expression(args.expression, pres)
    print(render_poly(pres.normalize(poly), pres))
    return 0


def _emit(bundle, fmt: str) -> int:
    if fmt == "json":
        print(bundle.render_json())
    else:
        print(bundle.render_text())
    return 0 if bundle.passed else 1


def _builtin_presentation(name: str):
    for bundle_name in BUILTIN_NAMES:
        bundle = builtin(bundle_name)
        if name in bundle.presentations:
            return bundle.presentation(name)
    raise DslError(f"no builtin algebra named {name!r}")


def _samples(args) -> dict:
    """--samples as a keyword argument; when it is not given, each suite
    keeps its own default (10000 for cocycle, 1000 otherwise)."""
    return {} if args.samples is None else {"samples": args.samples}


def _tol(args) -> float:
    """--tol, which must be finite and > 0: NaN or inf would pass any residual."""
    if not (0 < args.tol < math.inf):
        raise ValueError(f"tol must be finite and > 0, not {args.tol!r}")
    return args.tol


def cmd_check(args) -> int:
    from . import suites
    from .reports import ReportBundle
    which = args.which
    samples = _samples(args)
    tol = _tol(args)
    if which == "presentation":
        presentations = None
        if args.file is not None:
            path = Path(args.file)
            if not path.exists():
                raise DslError(f"no such file: {args.file}")
            presentations = _pick_algebra(_file_presentations(path),
                                          args.algebra)
        elif args.algebra is not None:
            presentations = {args.algebra: _builtin_presentation(args.algebra)}
        report = suites.timed(lambda: suites.run_presentation_suite(
            **samples, seed=args.seed, presentations=presentations))
    elif which == "hopf":
        if args.algebra not in (None, "lorentz"):
            raise DslError(f"the hopf suite runs on the lorentz builtin, "
                           f"not {args.algebra!r}")
        report = suites.timed(suites.run_hopf_suite)
    elif which == "coaction":
        report = suites.timed(suites.run_coaction_suite)
    elif which == "cocycle":
        s_values = args.s if args.s else list(suites.ACCEPTANCE_S_VALUES)
        report = suites.timed(lambda: suites.run_cocycle_suite(
            s_values=s_values, **samples, seed=args.seed, tol=tol,
            radius=args.radius))
    elif which == "pq":
        if (args.p is None) != (args.q is None):
            raise DslError("--p and --q must be given together")
        pairs = ([(args.p, args.q)] if args.p is not None
                 else list(suites.ACCEPTANCE_PQ_PAIRS))
        s_values = args.s if args.s else list(suites.ACCEPTANCE_S_VALUES)
        report = suites.timed(lambda: suites.run_pq_suite(
            pairs=pairs, **samples, seed=args.seed, tol=tol, s_values=s_values))
    else:  # pragma: no cover - argparse restricts choices
        raise DslError(f"unknown check {which!r}")
    return _emit(ReportBundle([report], seed=args.seed), args.format)


def cmd_report_all(args) -> int:
    from . import suites
    bundle = suites.run_all(**_samples(args), cocycle_samples=args.cocycle_samples,
                            seed=args.seed, tol=_tol(args))
    return _emit(bundle, args.format)


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (echoed in reports)")
    parser.add_argument("--samples", type=int, default=None,
                        help="sample count for randomized checks (default: "
                             "10000 for cocycle, 1000 otherwise)")
    parser.add_argument("--tol", type=float, default=1e-12,
                        help="pass/fail residual threshold")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmink",
        description="verification engine for the deformed Lorentz/Minkowski "
                    "algebras, their coaction, and the operator model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="print the normal form of an expression")
    p_norm.add_argument("file", help=".qalg file or builtin name")
    p_norm.add_argument("expression", help="polynomial expression, e.g. 'd a'")
    p_norm.add_argument("--algebra", help="algebra name if the file has several")
    p_norm.set_defaults(func=cmd_normalize)

    p_check = sub.add_parser("check", help="run one verification suite")
    p_check.add_argument("which",
                         choices=("presentation", "hopf", "coaction", "cocycle", "pq"))
    p_check.add_argument("--file", help=".qalg file for presentation checks")
    p_check.add_argument("--algebra", help="algebra for presentation/hopf checks")
    p_check.add_argument("--p", type=float, help="first model parameter")
    p_check.add_argument("--q", type=float, help="second model parameter")
    p_check.add_argument("--s", type=float, action="append",
                         help="deformation parameter (repeatable)")
    p_check.add_argument("--radius", type=float, default=2.0,
                         help="sampling disk radius for cocycle checks")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_all = sub.add_parser("report-all", help="run the full acceptance suite")
    p_all.add_argument("--cocycle-samples", type=int, default=10000)
    _add_common(p_all)
    p_all.set_defaults(func=cmd_report_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DslError, EvalOverflowError, StepLimitExceeded, ValueError) as exc:
        print(f"qmink: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
