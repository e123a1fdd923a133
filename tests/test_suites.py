"""suites.run_all: the forked exact half and the in-process numeric half give
the bundle, and the errors, of the in-order loop, and leave no child behind."""

import os
import pickle
import threading
import time

import pytest

from qmink import suites

SMALL = {"samples": 20, "cocycle_samples": 20, "seed": 3}

fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class SecondThread:
    """Keeps a second thread alive, which selects the in-order loop."""

    def __enter__(self):
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.stop.wait)
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()


def forks(monkeypatch):
    """Count the calls of os.fork from here on."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def run_in_order(**kwargs):
    with SecondThread():
        return suites.run_all(**kwargs)


@fork_only
def test_fork_and_in_order_paths_give_equal_bytes(monkeypatch):
    calls = forks(monkeypatch)
    assert threading.active_count() == 1
    forked = suites.run_all(**SMALL)
    assert calls == [1]
    in_order = run_in_order(**SMALL)
    assert calls == [1]
    assert forked.render_json() == in_order.render_json()
    assert [r.suite for r in forked.reports] == \
        ["presentation", "hopf", "coaction", "cocycle", "pq"]
    assert all(r.elapsed_ms > 0 for r in forked.reports)


class ChildSuiteError(ArithmeticError):
    pass


class ParentSuiteError(ArithmeticError):
    pass


def fail_with(error):
    def suite(**_):
        raise error
    return suite


@pytest.mark.parametrize("run", [suites.run_all, run_in_order],
                         ids=["forked", "in-order"])
@pytest.mark.parametrize("child_fails, parent_fails, expected", [
    (True, False, ChildSuiteError),
    (False, True, ParentSuiteError),
    (True, True, ChildSuiteError),  # hopf comes before pq in the report
])
def test_errors_surface_in_report_order(monkeypatch, run, child_fails,
                                        parent_fails, expected):
    if child_fails:
        monkeypatch.setattr(suites, "run_hopf_suite",
                            fail_with(ChildSuiteError("hopf broke")))
    if parent_fails:
        monkeypatch.setattr(suites, "run_pq_suite",
                            fail_with(ParentSuiteError("pq broke")))
    with pytest.raises(expected, match="broke"):
        run(**SMALL)


@fork_only
def test_an_unpicklable_child_error_arrives_as_a_runtime_error(monkeypatch):
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    monkeypatch.setattr(suites, "run_coaction_suite",
                        fail_with(LocalError("no way back")))
    with pytest.raises(RuntimeError, match="LocalError: no way back"):
        suites.run_all(**SMALL)


@fork_only
def test_a_child_without_a_result_names_its_exit_status(monkeypatch):
    assert threading.active_count() == 1  # so the exit happens in the child
    monkeypatch.setattr(suites, "run_hopf_suite", lambda: os._exit(7))
    with pytest.raises(RuntimeError, match="exit status 7"):
        suites.run_all(**SMALL)


@fork_only
def test_an_interrupt_kills_and_reaps_the_child(monkeypatch):
    assert threading.active_count() == 1  # so the sleep happens in the child
    monkeypatch.setattr(suites, "run_presentation_suite",
                        lambda **_: time.sleep(60))
    monkeypatch.setattr(suites, "run_cocycle_suite",
                        fail_with(KeyboardInterrupt()))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        suites.run_all(**SMALL)
    assert time.monotonic() - start < 30


def test_records_survive_a_pickle_round_trip():
    """Reports cross the fork pipe by pickle; the other records may too."""
    from qmink import coact, ncalg, oplab, reports
    from qmink.cocycle import CocycleParams
    from qmink.dsl import Token, builtin
    from qmink.scalars import GaussianRational

    lorentz = builtin("lorentz").presentation("lorentz")
    rule = lorentz.rules[0]
    entry = coact.ResidualEntry("a", rule.rhs, "b c")
    records = [GaussianRational.of("1/3", 2), lorentz.generators[4], rule,
               ncalg.CriticalPair(rule, rule, rule.lhs, rule.rhs, rule.rhs),
               entry, coact.MorphismReport("relations[Delta]", (entry,)),
               Token("ident", "a", 1, 2), CocycleParams(0.5),
               reports.NumericCheck("sumup", (("sumup", 1e-16),)),
               reports.CheckResult("x", False, residual=0.5, detail="worst")]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record and hash(copy) == hash(record)
        assert repr(copy) == repr(record)
    model = oplab.build_pq_pair(2.0, 3.0)
    copy = pickle.loads(pickle.dumps(model))  # its operators compare by atoms
    assert type(copy) is oplab.PQModel and copy[:4] == model[:4]
    assert (copy.R.atoms, copy.S.atoms) == (model.R.atoms, model.S.atoms)
    bundle = suites.run_all(**SMALL)
    copy = pickle.loads(pickle.dumps(bundle))
    assert copy.render_json() == bundle.render_json()
    assert copy.render_text() == bundle.render_text()
