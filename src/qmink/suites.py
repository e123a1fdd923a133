"""The five verification suites behind `qmink check` and `qmink report-all`.

Suites are pure given their parameters and seed, and `run_all` bundles
their reports in a fixed order, so reports are byte-stable.
"""

import math
import os
import random
import threading
import time

from . import cocycle as cc
from . import coact, oplab
from .dsl import BUILTIN_NAMES, builtin
from .ncalg import (NCPolynomial, check_local_confluence, check_termination,
                    render_poly, render_word)
from .reports import (CheckResult, ReportBundle, Residual, SuiteReport,
                      worst_of)

ACCEPTANCE_S_VALUES = (0.3, 0.7, 1.1)
ACCEPTANCE_PQ_PAIRS = ((1.0, 1.0), (2.0, 3.0), (0.5, math.e))
DEFAULT_TOL = 1e-12
ORACLE_MAX_LEN = 8  # longest random word the dual-strategy oracle draws
QUANTUM = ("lorentz", "minkowski")  # the presentation suite's default algebras


def timed(fn):
    start = time.perf_counter()
    report = fn()
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def load_line(what: str, start: float) -> str:
    """The text line for loading what a suite reads, which its caller does
    from `perf_counter()` = start on, so the suite times its own work."""
    return f"loaded {what} ({(time.perf_counter() - start) * 1000.0:.0f} ms)"


def _symbolic_check(name, report) -> CheckResult:
    """Fold a MorphismReport (exact residual polynomials) into a CheckResult."""
    failures = report.failures()
    if not failures:
        return CheckResult(name, True, detail="exact")
    worst = failures[0]
    return CheckResult(name, False,
                       detail=f"{len(failures)} nonzero residuals; "
                              f"first at {worst.label}: {worst.rendered}")


class Disagreements(int):
    """How many random words the two normalize strategies disagree on.

    `first` renders the first such word and both of its normal forms, so
    a failing oracle can be replayed; it is None when they all agree.
    """

    def __new__(cls, count: int, first):
        self = super().__new__(cls, count)
        self.first = first
        return self


def dual_strategy_agreement(pres, samples: int, seed: int) -> Disagreements:
    """Normalize random words of up to ORACLE_MAX_LEN letters with the
    deterministic and a seeded random strategy; confluent presentations
    must agree exactly."""
    rng = random.Random(seed)
    n = len(pres.generators)
    mismatches, first = 0, None
    for k in range(samples):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(0, ORACLE_MAX_LEN)))
        poly = NCPolynomial.word(word)
        nf_det = pres.normalize(poly)
        nf_rand = pres.normalize(poly, rng=random.Random(seed * 1000003 + k))
        if nf_det != nf_rand:
            mismatches += 1
            if first is None:
                first = (f"{render_word(word, pres)}: "
                         f"{render_poly(nf_det, pres)} (leftmost) vs "
                         f"{render_poly(nf_rand, pres)} (random)")
    return Disagreements(mismatches, first)


def run_presentation_suite(samples: int = 1000, seed: int = 0,
                           presentations=None) -> SuiteReport:
    """Termination, local confluence, and the dual-strategy oracle.

    By default runs on the builtin quantum presentations; pass a dict of
    presentations (e.g. from a parsed user file) to check those instead.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if presentations is None:
        presentations = {name: builtin(name).presentation(name) for name in QUANTUM}
    checks = []
    for name, pres in presentations.items():
        term = check_termination(pres)
        checks.append(CheckResult(f"{name}: termination", term.ok,
                                  detail=f"{len(pres.rules)} rules"))
        pairs = check_local_confluence(pres)
        checks.append(CheckResult(f"{name}: local confluence", not pairs,
                                  detail=f"{len(pairs)} unresolved critical pairs"))
        bad = dual_strategy_agreement(pres, samples, seed)
        detail = f"{bad} disagreements over {samples} random words"
        if bad:
            detail += f"; first at {bad.first}"
        checks.append(CheckResult(f"{name}: dual-strategy normal forms",
                                  bad == 0, detail=detail))
    return SuiteReport("presentation",
                       {"samples": samples, "max_len": ORACLE_MAX_LEN},
                       seed, checks)


def _morphism_suite(suite, file, name, kind, square) -> SuiteReport:
    """The builtin morphism `name`'s relations and star-equivariance (one
    `validate()`), its square against Delta on its domain's unstarred
    generators, and q = 1."""
    m = builtin(file).morphism(name)
    stars, relations = m.validate()
    checks = [
        _symbolic_check(f"{kind} preserves relations", relations),
        _symbolic_check(square, coact.check_cocommutativity_square(
            m, builtin(file).morphism("Delta"))),
        _symbolic_check("star-equivariance", stars),
        _symbolic_check("classical limit q = 1", coact.classical_limit_compare(
            m, builtin("classical").morphism(name))),
    ]
    return SuiteReport(suite, {"algebra": m.domain.name, "morphism": name},
                       None, checks)


def run_hopf_suite() -> SuiteReport:
    return _morphism_suite("hopf", "lorentz", "Delta", "comultiplication",
                           "coassociativity on generators")


def run_coaction_suite() -> SuiteReport:
    return _morphism_suite("coaction", "coaction", "DeltaH", "coaction",
                           "coaction identity on x, y, w")


def _residual_check(name, residual, tol) -> CheckResult:
    """A numeric CheckResult; a NaN or inf residual fails, and a failing
    sampled residual names the sample point of its worst (or first
    non-finite) value, so it can be replayed."""
    passed = math.isfinite(residual) and residual < tol
    detail = None
    if not passed and isinstance(residual, Residual):
        detail = residual.detail()
    return CheckResult(name, passed, residual=float(residual), detail=detail)


def run_cocycle_suite(s_values=ACCEPTANCE_S_VALUES, samples: int = 10000,
                      seed: int = 0, tol: float = DEFAULT_TOL,
                      radius: float = 2.0) -> SuiteReport:
    """The three cocycle identities for every s.  The disk points are drawn
    once, as many per sample as the largest declared identity takes, and
    each identity reads its samples from that stream once for all s."""
    params = [cc.CocycleParams(s) for s in s_values]
    npoints = max(identity.npoints for identity in cc.IDENTITIES)
    points = cc.disk_points(random.Random(seed), npoints * samples, radius)
    per_identity = [check(params, samples, seed, radius, points=points)
                    for check in (cc.check_cocycle_identity, cc.check_sumup,
                                  cc.check_omega_identity)]
    checks = []
    for s, results in zip(s_values, zip(*per_identity)):
        for result in results:
            for part, residual in result.parts:
                checks.append(_residual_check(
                    f"{result.name}[{part}] (s={s})", residual, tol))
    return SuiteReport("cocycle",
                       {"s_values": list(s_values), "samples": samples,
                        "radius": radius, "tol": tol},
                       seed, checks)


def _numeric_checks(check, label, tol):
    """One CheckResult per part of an oplab NumericCheck."""
    for part, residual in check.parts:
        yield _residual_check(f"{check.name}: {part} ({label})", residual, tol)


def run_pq_suite(pairs=ACCEPTANCE_PQ_PAIRS, samples: int = 1000, seed: int = 0,
                 tol: float = DEFAULT_TOL,
                 s_values=ACCEPTANCE_S_VALUES) -> SuiteReport:
    """The (p,q) model identities per pair, then the symbolic bridge per s,
    which reads the label (t^-1, t) as p^2, q^2 (the report's "plain").

    The checks of one model share sample columns and a column memo
    (`oplab.shared_samples`), which end with that model's block.  A pair
    outside double-precision range is a usage error naming p and q.
    """
    checks = []
    for p, q in pairs:
        label = f"p={p:g}, q={q:g}"
        try:
            with oplab.shared_samples():
                model = oplab.build_pq_pair(p, q)
                for result in (oplab.check_def_mu2(model, samples, seed),
                               oplab.check_QQstar(model, samples, seed),
                               oplab.check_twrs(model, samples, seed)):
                    checks.extend(_numeric_checks(result, label, tol))
                contraction = worst_of(
                    oplab.op_norm_sample(oplab.z_transform(op), samples=samples,
                                         seed=seed)
                    for op in (model.R, model.S))
        except OverflowError as exc:
            raise ValueError(f"p={p!r}, q={q!r} is outside the model's "
                             f"double-precision range ({exc})") from None
        checks.append(_residual_check(f"z-transform contraction ({label})",
                                      contraction, 1.0))
    for s in s_values:
        with oplab.shared_samples():
            result = oplab.check_symbolic_consistency(s, samples=samples,
                                                      seed=seed)
        checks.extend(_numeric_checks(result, f"s={s}, plain", tol))
    return SuiteReport("pq",
                       {"pairs": [[p, q] for p, q in pairs], "samples": samples,
                        "tol": tol, "convention": "plain", "box": oplab.BOX,
                        "s_values": list(s_values)},
                       seed, checks)


def run_all(samples: int = 1000, cocycle_samples: int = 10000, seed: int = 0,
            tol: float = DEFAULT_TOL) -> ReportBundle:
    """Run the five suites and bundle their reports in the fixed order.

    The suites are pure Python, so threads cannot overlap them; processes
    can.  Where `os.fork` exists and no other thread is running, a forked
    child runs the exact suites (presentation, hopf, coaction) while this
    process runs the numeric ones (cocycle, pq); otherwise all five run
    here one after another.  Either way the bundle is the same, and the
    error raised is that of the earliest failing suite in report order.
    The exact lane loads every builtin before it times its first suite.
    """
    def exact():  # the load line, then the timed reports
        start = time.perf_counter()
        for name in BUILTIN_NAMES:
            builtin(name)
        return [load_line(", ".join(BUILTIN_NAMES), start), *map(timed, (
            lambda: run_presentation_suite(samples=samples, seed=seed),
            run_hopf_suite, run_coaction_suite))]

    def numeric():
        return list(map(timed, (
            lambda: run_cocycle_suite(samples=cocycle_samples, seed=seed, tol=tol),
            lambda: run_pq_suite(samples=samples, seed=seed, tol=tol))))

    if hasattr(os, "fork") and threading.active_count() == 1:
        load, *reports = _run_beside(exact, numeric)
    else:
        load, *reports = exact() + numeric()
    return ReportBundle(reports, seed=seed, load=load)


def _outcome(lane):
    """("ok", the list lane() returns), or ("error", what it raised)."""
    try:
        return "ok", lane()
    except Exception as exc:
        return "error", exc


def _run_beside(child_lane, own_lane) -> list:
    """The list child_lane() returns, run in a forked child, then the one
    own_lane() returns, run here meanwhile.  The child always leaves through
    `os._exit` (no atexit handlers, no second flush of inherited buffers)
    and is always reaped; if this process is interrupted, it is killed
    first."""
    import pickle
    import signal
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            kind, value = _outcome(child_lane)
            try:
                data = pickle.dumps((kind, value))
                pickle.loads(data)
            except Exception:  # an exception that cannot cross the pipe
                data = pickle.dumps(("error", RuntimeError(
                    f"{type(value).__name__}: {value}")))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            own = _outcome(own_lane)
            payload = pipe.read()  # to EOF before waiting, so it cannot fill
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        theirs = pickle.loads(payload)
    except Exception:
        raise RuntimeError(f"the forked suites' process exited without a "
                           f"result (exit status {status})") from None
    for kind, value in (theirs, own):  # child_lane comes first in the report
        if kind == "error":
            raise value
    return theirs[1] + own[1]
