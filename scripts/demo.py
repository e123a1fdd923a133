#!/usr/bin/env python3
"""Walkthrough of the verification engine on the builtin algebras.

Prints a few normal forms, the comultiplication/coaction images, and a
compact summary of every verification suite.  Run from the repo root:

    python3 scripts/demo.py
"""

from qmink import coact
from qmink.dsl import builtin, parse_expression, render_poly
from qmink.reports import worst_of
from qmink.suites import run_all


def show_normal_forms():
    lor = builtin("lorentz").presentation("lorentz")
    mink = builtin("minkowski").presentation("minkowski")
    print("normal forms")
    for pres, text in ((lor, "d a"), (lor, "b' a"), (lor, "a' d'"),
                       (mink, "w x"), (mink, "w' y"), (mink, "w' w")):
        nf = pres.normalize(parse_expression(text, pres))
        print(f"  {pres.name}: {text}  ->  {render_poly(nf, pres)}")


def show_morphisms():
    delta = builtin("lorentz").morphism("Delta")
    delta_h = builtin("coaction").morphism("DeltaH")
    print("\ncomultiplication on the quantum Lorentz generators")
    for name in ("a", "b", "c", "d"):
        image = delta.apply(delta.domain.gen(name))
        print(f"  Delta({name}) = {render_poly(image, delta.codomain)}")
    print("\ncoaction on the quantum Minkowski generators")
    for name in ("x", "w", "y"):
        image = delta_h.apply(delta_h.domain.gen(name))
        print(f"  DeltaH({name}) = {render_poly(image, delta_h.codomain)}")
    square = coact.check_cocommutativity_square(
        delta_h, builtin("coaction").morphism("Delta"))
    print(f"\ncoaction identity on generators: "
          f"{'all residuals zero' if square.ok else 'FAILED'}")


def show_suites():
    print("\nfull verification bundle (seed 0)")
    bundle = run_all(samples=500, cocycle_samples=2000, seed=0)
    for report in bundle.reports:
        worst = worst_of(c.residual for c in report.checks
                         if c.residual is not None and "contraction" not in c.name)
        print(f"  {report.suite:13s} {'PASS' if report.passed else 'FAIL'}"
              f"   checks={len(report.checks):3d}   worst residual={worst:.2e}")
    print(f"overall: {'PASS' if bundle.passed else 'FAIL'}")


if __name__ == "__main__":
    show_normal_forms()
    show_morphisms()
    show_suites()
