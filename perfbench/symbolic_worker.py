"""Worker process of the `symbolic` workload.

    python3 perfbench/symbolic_worker.py SEED SECONDS SPAWNED_AT [--trace DUMP_FILE]

Set-up loads the lorentz and coaction builtins and the leg extensions the
squares need.  The timed part then runs the task kinds of CYCLE in order,
over and over, each on fresh seeded inputs, until SECONDS have passed; a
task that starts before the deadline runs to the end.  Each task is one
Morphism.apply, one coassociativity/coaction residual or one
Presentation.normalize, and only that call is timed.

The answers are checked after the timed part and never by the timed path:
residuals and relation-ideal probes must be exactly zero, and a seeded
subsample of the other results (always including the first) must equal the
normal form the random-redex strategy (`normalize(..., rng=...)`) gives for
the unnormalized free product.

Prints one JSON object on stdout.  With --trace, the timed part runs under
the tracer and its dump is written to DUMP_FILE.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from functools import reduce  # noqa: E402

ORACLE_SHARE = 0.1

# (kind, size): sizes are monomial degrees, or word lengths for normalize.
CYCLE = (("delta", 5), ("delta", 6), ("delta", 7), ("delta_h", 3),
         ("delta_h", 4), ("normalize", 16), ("normalize", 24),
         ("coassoc", 1), ("coassoc", 2), ("coaction", 1), ("coaction", 2),
         ("probe_lorentz", 2), ("probe_minkowski", 1))


class Tasks:
    """Seeded task inputs over the builtin algebras (built at set-up)."""

    def __init__(self):
        from qmink.coact import leg_extend
        from qmink.dsl import builtin
        from qmink.ncalg import NCPolynomial
        self.poly = NCPolynomial
        lorentz, coaction = builtin("lorentz"), builtin("coaction")
        self.L = lorentz.presentation("lorentz")
        self.M = coaction.presentation("minkowski")
        self.delta = lorentz.morphism("Delta")
        self.delta_h = coaction.morphism("DeltaH")
        comult = coaction.morphism("Delta")
        self.squares = {
            "coassoc": (self.delta, leg_extend(self.delta, "left", self.L),
                        leg_extend(self.delta, "right", self.L)),
            "coaction": (self.delta_h,
                         leg_extend(self.delta_h, "left", comult.domain),
                         leg_extend(comult, "right", self.M)),
        }

    def word(self, rng, pres, length):
        return self.poly.word(rng.randrange(len(pres.generators))
                              for _ in range(length))

    def monomial(self, rng, pres, degree):
        """The first `degree` generators in declaration order, shuffled.

        Fixing the letters and seeding only their order keeps the cost of a
        task kind within a narrow band (random letters spread it by 2x), so
        the median and tail of a run do not hinge on how many costly
        letters the seed happened to draw."""
        letters = list(range(degree))
        rng.shuffle(letters)
        return self.poly.word(letters)

    def make(self, kind, size, rng):
        """(task, oracle): oracle(k) gives the expected answer through the
        random-redex strategy, or is None when the answer must be zero."""
        if kind in ("delta", "delta_h"):
            m = self.delta if kind == "delta" else self.delta_h
            poly = self.monomial(rng, m.domain, size)
            return (lambda: m.apply(poly)), _apply_oracle(m, poly)
        if kind == "normalize":
            poly = self.word(rng, self.L, size)
            return ((lambda: self.L.normalize(poly)),
                    lambda k: self.L.normalize(poly, rng=random.Random(k)))
        if kind in self.squares:
            m, left, right = self.squares[kind]
            poly = self.word(rng, m.domain, size)

            def residual():
                once = m.apply(poly)
                return left.codomain.normalize(left.apply(once) - right.apply(once))
            return residual, None
        # relation-ideal probe: the image of u (lhs - rhs) v is zero
        m = self.delta if kind == "probe_lorentz" else self.delta_h
        rule = rng.choice(m.domain.rules)
        u = self.word(rng, m.domain, rng.randint(0, size))
        v = self.word(rng, m.domain, rng.randint(0, size))
        poly = u * rule.as_polynomial() * v
        return (lambda: m.apply(poly)), None


def _apply_oracle(m, poly):
    def oracle(k):
        free = type(poly).zero()
        for word, coeff in poly.terms.items():
            free = free + reduce(lambda acc, i: acc * m.images[i], word,
                                 type(poly).unit(coeff))
        return m.codomain.normalize(free, rng=random.Random(k))
    return oracle


def run(seed, seconds, tracer=None):
    tasks = Tasks()
    if tracer is not None:
        tracer.install()
    rng = random.Random(seed)
    pick = random.Random(seed + 1)
    walls, cpus, kinds, pending, failures = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        kind, size = CYCLE[k % len(CYCLE)]
        task, oracle = tasks.make(kind, size, rng)
        span = None
        if tracer is not None:
            tracer.op = k
            span = tracer.open("bench.task")
        c0, t0 = time.process_time(), time.perf_counter()
        result = task()
        t1, c1 = time.perf_counter(), time.process_time()
        if span is not None:
            tracer.close(span)
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        kinds.append(f"{kind}{size}")
        if oracle is None:
            if not result.is_zero():
                failures.append(f"task {k} ({kind}{size}): nonzero residual")
        elif not pending or pick.random() < ORACLE_SHARE:
            pending.append((k, result, oracle))
        k += 1
    return walls, cpus, kinds, pending, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("spawned", type=float)
    parser.add_argument("--trace", help="write the tracer dump here")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the first checked result (self-test)")
    args = parser.parse_args()
    t0 = time.perf_counter()
    import qmink.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer, write_dump
        tracer = Tracer()
    walls, cpus, kinds, pending, failures = run(args.seed, args.seconds, tracer)
    if tracer is not None:
        write_dump(args.trace, tracer.dump(
            {"python.start_s": STARTED - args.spawned, "cli.import_s": import_s}))
    for n, (k, result, oracle) in enumerate(pending):
        if args.inject_fault and n == 0:
            result = result + result
        if result != oracle(k):
            failures.append(f"task {k} ({kinds[k]}): normal form differs "
                            f"from the random-strategy oracle")
    json.dump({"walls": walls, "cpus": cpus, "kinds": kinds,
               "failures": failures, "oracle_checks": len(pending)}, sys.stdout)
    print()


if __name__ == "__main__":
    main()
