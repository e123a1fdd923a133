"""Runtime tracer for qmink, installed from outside the program.

`Tracer.install()` replaces public functions and methods of the qmink
modules with wrappers.  Boundary calls become spans (name, start, end,
parent, operation id); hot leaf calls (`Scalar.__mul__`, `Scalar.__add__`,
`Presentation.find_redex`) are only counted and timed in aggregate, and
their time is charged to the span that was open when they ran.

Each thread keeps its own parent stack, because `suites.run_all` runs the
suites on pool threads; a span opened on a thread with an empty stack takes
the innermost span open on the main thread as its parent.  Spans record
wall-clock start and end and the CPU time of their thread.  Self time is
busy time: a span's thread CPU time minus that of its child spans on the
same thread and of the hot calls charged to it.  Pool threads waiting for
the interpreter lock are therefore not counted as busy, while the wall
durations (the `*_s` metrics that are not `self_s`) still include the wait.

`layer_metrics()` turns the dumps of one or more traced processes into the
per-layer metrics listed in BENCHMARK.json, averaged per operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
from time import perf_counter, thread_time

SUITES = ("presentation", "hopf", "coaction", "cocycle", "pq")

# (module, attribute path, span name); a span's layer is its name's prefix.
SPANS = [
    ("ncalg", "Presentation.normalize", "ncalg.normalize"),
    ("ncalg", "check_local_confluence", "ncalg.confluence"),
    ("ncalg", "star_closure", "ncalg.star_closure"),
    ("ncalg", "check_termination", "ncalg.termination"),
    ("ncalg", "tensor", "ncalg.tensor"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "parse_expression", "dsl.parse_expression"),
    ("dsl", "builtin", "dsl.builtin"),
    ("coact", "Morphism.apply", "coact.apply"),
    ("coact", "Morphism.validate", "coact.validate"),
    ("coact", "Morphism.from_unstarred", "coact.from_unstarred"),
    ("coact", "leg_extend", "coact.leg_extend"),
    ("coact", "check_relations_preserved", "coact.relations"),
    ("coact", "check_cocommutativity_square", "coact.square"),
    ("coact", "check_star_equivariance", "coact.star_equivariance"),
    ("coact", "classical_limit_compare", "coact.classical_limit"),
    ("cocycle", "check_cocycle_identity", "cocycle.check"),
    ("cocycle", "check_sumup", "cocycle.check"),
    ("cocycle", "check_omega_identity", "cocycle.check"),
    ("oplab", "op_equal", "oplab.op_equal"),
    ("oplab", "op_norm_sample", "oplab.op_norm_sample"),
    ("oplab", "compose", "oplab.build"),
    ("oplab", "adjoint", "oplab.build"),
    ("oplab", "z_transform", "oplab.build"),
    ("oplab", "defect_sqrt", "oplab.build"),
    ("oplab", "build_Q", "oplab.build"),
    ("oplab", "build_pq_pair", "oplab.build_pq_pair"),
    ("oplab", "check_def_mu2", "oplab.check"),
    ("oplab", "check_QQstar", "oplab.check"),
    ("oplab", "check_twrs", "oplab.check"),
    ("oplab", "check_symbolic_consistency", "oplab.check"),
    ("suites", "run_all", "suites.run_all"),
    ("reports", "ReportBundle.render_json", "reports.render_json"),
    ("reports", "ReportBundle.render_text", "reports.render_text"),
    ("cli", "main", "cli.main"),
] + [("suites", f"run_{s}_suite", f"suites.{s}") for s in SUITES]

# (module, attribute path, result -> name of the count it adds to)
HOT = [
    ("scalars", "Scalar.__mul__", lambda result: "scalars.mul_calls"),
    ("scalars", "Scalar.__add__", lambda result: "scalars.add_calls"),
    ("ncalg", "Presentation.find_redex",
     lambda hit: "ncalg.terminal_words" if hit is None else "ncalg.redex_steps"),
]


class Span:
    __slots__ = ("name", "parent", "op", "thread", "start", "end",
                 "cpu_start", "cpu_end", "hot", "counts")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.start = perf_counter()
        self.cpu_start = thread_time()
        self.end = self.cpu_end = None
        self.hot = 0.0
        self.counts = None


def _bound_arg(fn, name):
    """Reader of one argument (defaults applied) from a call to fn."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _buckets_compared(a, b, shift_tol):
    """Shift buckets op_equal evaluates: matched pairs plus unmatched ones."""
    used = set()
    for va in a.atoms:
        for vb in b.atoms:
            if (vb not in used and abs(va[0] - vb[0]) <= shift_tol
                    and abs(va[1] - vb[1]) <= shift_tol):
                used.add(vb)
                break
    return len(a.atoms) + len(b.atoms) - len(used)


class Tracer:
    """Collects spans and hot-call aggregates for one traced process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._tls = threading.local()
        self._main_stack = self._stack()
        self._hot_tables = []
        self._lock = threading.Lock()

    # -- per-thread state -----------------------------------------------------

    def _stack(self):
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def _hot(self):
        try:
            return self._tls.hot
        except AttributeError:
            table = {}
            with self._lock:
                self._hot_tables.append(table)
            self._tls.hot = table
            return table

    # -- recording ------------------------------------------------------------

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if (main and stack is not main) else None
        span = Span(name, parent, self.op)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.cpu_end = thread_time()
        span.end = perf_counter()
        self._stack().pop()

    def _span_wrapper(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counts is not None:
                span.counts = counts(span, args, kwargs, result)
            return result
        return wrapper

    def _hot_wrapper(self, fn, count_name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = thread_time()
            result = fn(*args, **kwargs)
            dt = thread_time() - t0
            stack = tracer._stack()
            if stack:
                stack[-1].hot += dt
            table = tracer._hot()
            key = count_name(result)
            entry = table.get(key)
            if entry is None:
                table[key] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            return result
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the qmink boundaries; returns the imported qmink.cli module."""
        modules = {m: importlib.import_module(f"qmink.{m}") for m in
                   ("scalars", "ncalg", "dsl", "coact", "cocycle", "oplab",
                    "suites", "reports", "cli")}
        package = importlib.import_module("qmink")
        counts = _count_readers(modules)
        replaced = {}
        for mod, path, name in SPANS:
            owner, attr, fn = _resolve(modules[mod], path)
            if isinstance(fn, classmethod):
                wrapper = classmethod(self._span_wrapper(fn.__func__, name, None))
            else:
                wrapper = self._span_wrapper(fn, name, counts.get(path))
            setattr(owner, attr, wrapper)
            replaced[id(fn)] = wrapper
        for mod, path, count_name in HOT:
            owner, attr, fn = _resolve(modules[mod], path)
            setattr(owner, attr, self._hot_wrapper(fn, count_name))
        # `from .x import f` made copies: point every module-level alias at the wrapper
        for module in list(modules.values()) + [package]:
            for key, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, key, replaced[id(value)])
        return modules["cli"]

    # -- output -----------------------------------------------------------------

    def dump(self, meta):
        """Spans with their self (busy) time, hot aggregates and metadata."""
        closed = [s for s in self.spans if s.end is not None]
        index = {id(s): i for i, s in enumerate(closed)}
        child_cpu = {}
        for s in closed:
            if s.parent is not None and s.parent.thread == s.thread:
                child_cpu[id(s.parent)] = (child_cpu.get(id(s.parent), 0.0)
                                           + s.cpu_end - s.cpu_start)
        spans = [{"id": i, "name": s.name,
                  "parent": index.get(id(s.parent)),
                  "op": s.op, "start": s.start, "end": s.end,
                  "self": (s.cpu_end - s.cpu_start - child_cpu.get(id(s), 0.0)
                           - s.hot),
                  "counts": s.counts}
                 for i, s in enumerate(closed)]
        hot = {}
        for table in self._hot_tables:
            for key, (count, total) in table.items():
                acc = hot.setdefault(key, [0, 0.0])
                acc[0] += count
                acc[1] += total
        return {"meta": meta, "spans": spans, "hot": hot}


def _count_readers(modules):
    """Per-call counts some spans add to the layer metrics, by attribute path."""
    oplab, cocycle = modules["oplab"], modules["cocycle"]
    op_samples = _bound_arg(oplab.op_equal, "samples")
    op_tol = _bound_arg(oplab.op_equal, "shift_tol")
    cc_samples = _bound_arg(cocycle.check_cocycle_identity, "samples")

    def normalize(span, args, kwargs, result):
        # only the deterministic strategy goes through the wrapped find_redex
        counts = {}
        if kwargs.get("rng") is None:
            counts["ncalg.out_terms"] = len(result.words())
        if span.parent is not None and span.parent.name == "coact.apply":
            counts["coact.apply_normalize_in_terms"] = len(args[1].words())
        return counts

    def op_equal(span, args, kwargs, result):
        return {"oplab.points": op_samples(args, kwargs) * _buckets_compared(
            args[0], args[1], op_tol(args, kwargs))}

    def cocycle_check(span, args, kwargs, result):
        return {"cocycle.samples": cc_samples(args, kwargs)}

    def builtin(span, args, kwargs, result):
        name = args[0] if args else kwargs["name"]
        return {f"dsl.builtin_load_s.{name}": span.end - span.start}

    return {
        "Presentation.normalize": normalize,
        "op_equal": op_equal,
        "check_cocycle_identity": cocycle_check,
        "check_sumup": cocycle_check,
        "check_omega_identity": cocycle_check,
        "builtin": builtin,
    }


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, fn


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("scalars", "ncalg", "dsl", "coact", "cocycle", "oplab", "suites",
          "reports", "cli")
# span name -> metric that sums the spans' self (busy) time
SELF_METRICS = {"ncalg.normalize": "ncalg.normalize_self_s",
                "ncalg.confluence": "ncalg.confluence_self_s",
                "ncalg.star_closure": "ncalg.star_closure_self_s",
                "coact.apply": "coact.apply_self_s",
                "oplab.op_equal": "oplab.op_equal_self_s",
                "oplab.build": "oplab.build_self_s"}
# span name -> metric that sums the spans' wall durations
WALL_METRICS = {"dsl.parse": "dsl.parse_s",
                "coact.validate": "coact.validate_s",
                "suites.run_all": "suites.run_all_s",
                "reports.render_json": "reports.render_json_s",
                "reports.render_text": "reports.render_text_s",
                **{f"suites.{s}": f"suites.{s}_s" for s in SUITES}}
# span name -> metric that counts the spans
CALL_METRICS = {"ncalg.normalize": "ncalg.normalize_calls",
                "coact.apply": "coact.apply_calls",
                "oplab.op_equal": "oplab.op_equal_calls"}
# hot count -> metric that also sums its time
HOT_TIME_METRICS = {"ncalg.redex_steps": "ncalg.find_redex_s",
                    "ncalg.terminal_words": "ncalg.find_redex_s"}


def layer_metrics(dumps, ops):
    """Per-operation per-layer metrics from traced-process dumps.

    `ops` is the number of traced operations the dumps cover; sums are
    divided by it, ratios are ratios of sums, and the per-process start-up
    figures are medians over processes.
    """
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for dump in dumps:
        for s in dump["spans"]:
            name, self_s = s["name"], s["self"]
            layer = name.split(".")[0]
            if layer in LAYERS:
                add(f"{layer}.self_s", self_s)
            if name in SELF_METRICS:
                add(SELF_METRICS[name], self_s)
            if name in WALL_METRICS:
                add(WALL_METRICS[name], s["end"] - s["start"])
            if name in CALL_METRICS:
                add(CALL_METRICS[name], 1)
            for key, value in (s["counts"] or {}).items():
                add(key, value)
        for key, (count, total) in dump["hot"].items():
            add(key, count)
            add(f"{key.split('.')[0]}.self_s", total)
            if key in HOT_TIME_METRICS:
                add(HOT_TIME_METRICS[key], total)
    per_op = {k: v / max(ops, 1) for k, v in totals.items()}
    terminal = totals.get("ncalg.terminal_words", 0)
    per_op["ncalg.merge_ratio"] = (totals.get("ncalg.out_terms", 0) / terminal
                                   if terminal else 0.0)
    run_all = totals.get("suites.run_all_s", 0)
    per_op["suites.overlap"] = (sum(totals.get(f"suites.{s}_s", 0) for s in SUITES)
                                / run_all if run_all else 0.0)
    for key in ("python.start_s", "cli.import_s"):  # once per traced process
        values = [d["meta"][key] for d in dumps]
        per_op[key] = statistics.median(values) if values else 0.0
    return per_op


def write_dump(path, dump):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
