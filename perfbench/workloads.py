"""The three workloads of the qmink benchmark.

Each is a single-process, closed-loop, one-client generator: it starts the
next operation only after the previous one has finished, and starts none
after the run's deadline.  An operation is one `qmink` command in a fresh
interpreter (`report-all`, `cold-start`) or one in-process task
(`symbolic`).  Inputs come only from the workload seed; answers are checked
after the timed loop against results the timed path did not produce.

With tracing on, the first half of the run is measured untraced and the
second half traced, from the same seed, so that the tracer's own overhead
is the difference between the two halves' median operation times.
"""

from __future__ import annotations

import collections
import json
import random
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import harness
from harness import BENCH_DIR, OUT, QMINK, SRC, monotonic, run_child

ALL_BUILTINS = ("lorentz", "minkowski", "coaction", "classical")


@dataclass
class Op:
    """One operation: its qmink arguments and what the answer must be."""

    args: list
    check: tuple = ()
    proc: harness.Proc = None
    problems: list = field(default_factory=list)


@dataclass
class Outcome:
    """Samples of the untraced timed operations; `attempted` and `failures`
    cover every operation, traced ones included."""

    walls: list
    cpus: list
    rss_mb: list
    attempted: int
    failures: list
    traced_walls: list = field(default_factory=list)
    dumps: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# workloads made of qmink commands
# ---------------------------------------------------------------------------


class CliWorkload:
    builtins = ALL_BUILTINS

    def plan(self, seed):
        """Endless iterator of Op for the given seed."""
        raise NotImplementedError

    def verify(self, ops):
        """Record in op.problems every way an answer is wrong."""
        raise NotImplementedError

    def _loop(self, seed, seconds, traced, first_id):
        ops = []
        plan = self.plan(seed)
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            op = next(plan)
            if traced:
                dump = OUT / f"dump-{first_id + len(ops)}.json"
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                        str(dump), str(first_id + len(ops)), repr(monotonic()),
                        *op.args]
            else:
                argv = QMINK + op.args
            op.proc = run_child(argv)
            ops.append(op)
        return ops

    def run(self, seed, seconds, trace, inject_fault=False):
        if trace:
            plain = self._loop(seed, seconds / 2, False, 0)
            traced = self._loop(seed, seconds / 2, True, len(plain))
        else:
            plain, traced = self._loop(seed, seconds, False, 0), []
        ops = plain + traced
        dumps = []
        for k, op in enumerate(traced):
            path = OUT / f"dump-{len(plain) + k}.json"
            if path.exists():
                dumps.append(json.loads(path.read_text("utf-8")))
                path.unlink()
            else:
                op.problems.append("traced run wrote no trace")
        if inject_fault:
            out = ops[0].proc.stdout
            mid = len(out) // 2
            ops[0].proc.stdout = out[:mid] + bytes([out[mid] ^ 0x01]) + out[mid + 1:]
        self.verify(ops)
        failures = [f"op {k} ({' '.join(op.args)}): {'; '.join(op.problems)}"
                    for k, op in enumerate(ops) if op.problems]
        return Outcome(walls=[op.proc.wall for op in plain],
                       cpus=[op.proc.cpu for op in plain],
                       rss_mb=[op.proc.rss_mb for op in plain],
                       attempted=len(ops), failures=failures,
                       traced_walls=[op.proc.wall for op in traced],
                       dumps=dumps)


def _import_qmink():
    """Make the checkout's qmink importable in the harness process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _exit_code(op, expected=0):
    if op.proc.rc != expected:
        op.problems.append(f"exit code {op.proc.rc}, expected {expected}: "
                           + op.proc.stderr.decode(errors="replace").strip()[-300:])
        return False
    return True


class ReportAll(CliWorkload):
    """`qmink report-all --format json --seed S`, S drawn from the seed."""

    # suite -> number of checks in the paper's verdict at the default sizes
    SUITE_CHECKS = {"presentation": 6, "hopf": 4, "coaction": 4,
                    "cocycle": 12, "pq": 45}

    def plan(self, seed):
        report_seed = random.Random(seed).randrange(1, 2**31)
        while True:
            yield Op(["report-all", "--format", "json", "--seed", str(report_seed)])

    def verify(self, ops):
        import jsonschema
        schema = json.loads((SRC / "qmink" / "data" / "report.schema.json")
                            .read_text("utf-8"))
        validator = jsonschema.Draft7Validator(schema)
        outputs = collections.Counter(op.proc.stdout for op in ops)
        reference = outputs.most_common(1)[0][0]
        if len(ops) == 1:
            twin = run_child(QMINK + ops[0].args)
            if twin.stdout != reference:
                ops[0].problems.append("a second invocation with the same seed "
                                       "printed different bytes")
        verdicts = {out: self._problems(out, validator) for out in outputs}
        for op in ops:
            if not _exit_code(op):
                continue
            if op.proc.stdout != reference:
                op.problems.append("output differs from the other invocations "
                                   "with the same seed")
            op.problems.extend(verdicts[op.proc.stdout])

    def _problems(self, out, validator):
        try:
            report = json.loads(out)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
        if problems:
            return problems
        counts = {r["suite"]: len(r["checks"]) for r in report["reports"]}
        if list(counts.items()) != list(self.SUITE_CHECKS.items()):
            problems.append(f"check counts {counts}, expected {self.SUITE_CHECKS}")
        failed = [c["name"] for r in report["reports"] for c in r["checks"]
                  if c["status"] != "pass"]
        if failed or report["status"] != "pass":
            problems.append(f"failed checks: {failed[:5]}")
        return problems


class ColdStart(CliWorkload):
    """Short commands: `normalize` on every builtin algebra, `check hopf`,
    `check coaction`, in a fixed cycle with seeded expressions."""

    TARGETS = (("lorentz", None), ("minkowski", None),
               ("coaction", "lorentz"), ("coaction", "minkowski"),
               ("classical", "classical_lorentz"),
               ("classical", "classical_minkowski"))
    # hand-checked normal forms for the first cycle's first two commands
    PINNED = {("lorentz", None): ("d a", "1 + b c"),
              ("minkowski", None): ("w x", "q^-4 x w")}
    CHECKS = ("hopf", "coaction")
    CHECKS_PER_SUITE = 4

    @staticmethod
    def letters(file, algebra):
        from qmink.dsl import builtin
        pres = builtin(file).presentation(algebra or file)
        return [g.display() for g in pres.generators]

    def plan(self, seed):
        _import_qmink()
        letters = {t: self.letters(*t) for t in self.TARGETS}
        rng = random.Random(seed)
        first = True
        while True:
            for file, algebra in self.TARGETS:
                pinned = self.PINNED.get((file, algebra)) if first else None
                if pinned:
                    expr = pinned[0]
                else:
                    expr = " ".join(rng.choice(letters[file, algebra])
                                    for _ in range(rng.randint(2, 6)))
                args = ["normalize", file, expr]
                if algebra:
                    args += ["--algebra", algebra]
                yield Op(args, ("normalize", file, algebra, expr,
                                pinned[1] if pinned else None))
            for suite in self.CHECKS:
                yield Op(["check", suite], ("check", suite))
            first = False

    def verify(self, ops):
        _import_qmink()
        from qmink.dsl import builtin, parse_expression, render_poly
        for k, op in enumerate(ops):
            if not _exit_code(op):
                continue
            out = op.proc.stdout.decode(errors="replace")
            if op.check[0] == "check":
                passes = out.count("[pass] ")
                if ("overall: PASS" not in out or "[FAIL]" in out
                        or passes != self.CHECKS_PER_SUITE):
                    op.problems.append(f"check {op.check[1]} did not pass its "
                                       f"{self.CHECKS_PER_SUITE} checks")
                continue
            _, file, algebra, expr, pinned = op.check
            pres = builtin(file).presentation(algebra or file)
            oracle = pres.normalize(parse_expression(expr, pres),
                                    rng=random.Random(k))
            expected = render_poly(oracle, pres)
            if pinned is not None and expected != pinned:
                op.problems.append(f"random-strategy normal form {expected!r} "
                                   f"differs from the pinned {pinned!r}")
            if out.strip() != expected:
                op.problems.append(f"printed {out.strip()!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# in-process symbolic tasks
# ---------------------------------------------------------------------------


class Symbolic:
    """Exact rewriting tasks in one worker process (symbolic_worker.py)."""

    builtins = ("lorentz", "coaction")

    def _worker(self, seed, seconds, dump=None, inject_fault=False):
        argv = [sys.executable, str(BENCH_DIR / "symbolic_worker.py"),
                str(seed), repr(seconds), repr(monotonic())]
        if dump is not None:
            argv += ["--trace", str(dump)]
        if inject_fault:
            argv.append("--inject-fault")
        proc = run_child(argv)
        if proc.rc != 0:
            raise RuntimeError("symbolic worker failed: "
                               + proc.stderr.decode(errors="replace")[-2000:])
        return proc, json.loads(proc.stdout.decode().strip().splitlines()[-1])

    def run(self, seed, seconds, trace, inject_fault=False):
        task_seed = random.Random(seed).randrange(2**31)
        plain_s = seconds / 2 if trace else seconds
        proc, plain = self._worker(task_seed, plain_s, inject_fault=inject_fault)
        outcome = Outcome(walls=plain["walls"], cpus=plain["cpus"],
                          rss_mb=[proc.rss_mb], attempted=len(plain["walls"]),
                          failures=list(plain["failures"]))
        kinds = collections.defaultdict(list)
        for kind, wall in zip(plain["kinds"], plain["walls"]):
            kinds[kind].append(wall)
        outcome.details = {
            "oracle_checks": plain["oracle_checks"],
            "median_s_by_kind": {k: statistics.median(v) for k, v in kinds.items()},
        }
        if trace:
            dump = OUT / "dump-symbolic.json"
            _, traced = self._worker(task_seed, seconds / 2, dump=dump)
            outcome.traced_walls = traced["walls"]
            outcome.attempted += len(traced["walls"])
            outcome.failures += traced["failures"]
            outcome.dumps = [json.loads(dump.read_text("utf-8"))]
            dump.unlink()
        return outcome


WORKLOADS = {"report-all": ReportAll, "cold-start": ColdStart,
             "symbolic": Symbolic}
