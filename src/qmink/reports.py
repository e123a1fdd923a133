"""Structured verification reports with a stable, schema-versioned JSON form.

JSON output is byte-deterministic for a fixed seed: timing is kept out of
the JSON rendering (it still appears in the text rendering) and all
collections are emitted in construction order.  It is strict JSON: a
non-finite residual is written as null, and any other NaN or inf is an
error rather than output.
"""

import json
import math
from collections import namedtuple

SCHEMA_VERSION = "1"


class Residual(float):
    """A sampled residual that also names its sample point.

    `at` is the first sample where the residual attains its maximum: the
    point (x, y) of an operator comparison, or the disk points of a cocycle
    identity in the order its formula names them.  Evaluating both sides
    there reproduces the residual.
    """

    __slots__ = ("at",)

    def __new__(cls, value: float, at: tuple):
        self = super().__new__(cls, value)
        self.at = at
        return self

    def detail(self) -> str:
        where = "worst" if math.isfinite(self) else "first non-finite"
        return f"{where} at ({', '.join(map(repr, self.at))})"


def worst_of(residuals) -> float:
    """The first NaN or inf residual, else the first largest (0.0 for none):
    the value `fold_max` folds them to."""
    return fold_max((0.0, 0), residuals)[0]


def fold_max(best, col, start=0):
    """Fold a column, numbered from start, into best = (value, index).

    An entry wins only if strictly larger, as in max(worst, r), so the
    index is the first point where the maximum is attained; but the first
    NaN or inf wins for good, so a non-finite residual cannot pass.
    """
    worst, at = best
    if not math.isfinite(worst):
        return best
    for i, r in enumerate(col, start):
        if r > worst or r != r:
            worst, at = r, i
            if not math.isfinite(r):
                break
    return worst, at


class NumericCheck(namedtuple("NumericCheck", "name parts")):
    """A named numeric check: its (label, residual) parts, in order."""

    __slots__ = ()

    @property
    def max_residual(self) -> float:
        return worst_of(r for _, r in self.parts)


class CheckResult(namedtuple("CheckResult", "name passed residual detail",
                             defaults=(None, None))):
    """A verdict, with an optional float residual and text detail."""

    __slots__ = ()

    def to_json(self) -> dict:
        out = {"name": self.name, "status": "pass" if self.passed else "fail"}
        if self.residual is not None:
            # strict JSON has no NaN or inf; the text rendering keeps them
            out["residual"] = self.residual if math.isfinite(self.residual) else None
        if self.detail is not None:
            out["detail"] = self.detail
        return out


class SuiteReport:
    """A suite's checks, inputs and seed, and (text only) its time."""

    def __init__(self, suite: str, inputs: dict, seed, checks: list, elapsed_ms=0.0):
        self.suite, self.inputs, self.seed = suite, inputs, seed
        self.checks, self.elapsed_ms = checks, elapsed_ms

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "status": "pass" if self.passed else "fail",
            "inputs": self.inputs,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'} "
                 f"({self.elapsed_ms:.0f} ms)"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            bits = [f"  [{status}] {c.name}"]
            if c.residual is not None:
                bits.append(f"residual={c.residual:.3e}")
            if c.detail is not None:
                bits.append(c.detail)
            lines.append(" ".join(bits))
        return "\n".join(lines)


class ReportBundle:
    """A command's reports, its seed, and (text only) its load line."""

    def __init__(self, reports: list, seed=None, load=None):
        self.reports, self.seed, self.load = reports, seed, load

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "pass" if self.passed else "fail",
            "seed": self.seed,
            "reports": [r.to_json() for r in self.reports],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False, allow_nan=False)

    def render_text(self) -> str:
        lines = [self.load] if self.load else []
        lines += [r.render_text() for r in self.reports]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
