"""The benchmark's tracer wraps qmink names from outside the program: every
name it wraps, and every argument it reads by name, must exist, so that a
refactor that drops one fails here rather than in a traced benchmark run.
The tracer is only read; nothing is wrapped in this process."""

import importlib
import types
from pathlib import Path

from qmink import oplab

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py as a module, compiled without writing bytecode."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text("utf-8"), str(TRACER), "exec"), vars(module))
    return module


def qmink_modules(tracer):
    names = {mod for mod, _, _ in tracer.SPANS + tracer.HOT} | {"oplab", "cocycle"}
    return {m: importlib.import_module(f"qmink.{m}") for m in names}


def test_every_traced_attribute_path_resolves():
    tracer = load_tracer()
    modules = qmink_modules(tracer)
    for mod, path, _ in tracer.SPANS + tracer.HOT:
        _, _, fn = tracer._resolve(modules[mod], path)
        assert callable(getattr(fn, "__func__", fn)), (mod, path)


def test_the_count_readers_bind_their_arguments_by_name():
    tracer = load_tracer()
    counts = tracer._count_readers(qmink_modules(tracer))
    assert set(counts) <= {path for _, path, _ in tracer.SPANS}
    # op_equal's samples and shift_tol, read from a real call's arguments
    model = oplab.build_pq_pair(2.0, 3.0)
    points = counts["op_equal"](None, (model.R, model.S), {"samples": 7}, None)
    assert points == {"oplab.points": 7 * 2}
    # check_cocycle_identity's samples, positional and by keyword
    cocycle_check = counts["check_cocycle_identity"]
    assert cocycle_check(None, ((0.7,), 11, 0), {}, None) == {"cocycle.samples": 11}
    assert cocycle_check(None, ((0.7,),), {"samples": 5, "seed": 0},
                         None) == {"cocycle.samples": 5}
