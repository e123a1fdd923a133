"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here: symbolic checks are exact (zero residual
polynomials), numeric checks use 1e-12 over the stated seeded sample plans,
and the undeformed (p = q = 1) operator identities must be exactly zero.
Run with `pytest tests/test_acceptance.py -v -s` or, equivalently at the
CLI, `qmink report-all`.
"""

import math

from qmink import coact
from qmink import cocycle as cc
from qmink import oplab
from qmink.dsl import builtin
from qmink.ncalg import check_local_confluence, check_termination
from qmink.suites import dual_strategy_agreement

TOL = 1e-12
S_VALUES = (0.3, 0.7, 1.1)
PQ_PAIRS = ((1.0, 1.0), (2.0, 3.0), (0.5, math.e))


def _report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_presentation_integrity():
    ok = True
    for name in ("lorentz", "minkowski"):
        pres = builtin(name).presentation(name)
        ok &= all(pres.normalize(pres.star(rule.as_polynomial())).is_zero()
                  for rule in pres.rules)
        ok &= check_termination(pres).ok
        ok &= check_local_confluence(pres) == []
        ok &= dual_strategy_agreement(pres, samples=1000, seed=2024) == 0
    _report("1 presentation-integrity (termination, confluence, "
            "dual-strategy oracle)", ok)


def test_criterion_2_comultiplication():
    delta = builtin("lorentz").morphism("Delta")
    relations = coact.check_relations_preserved(delta)
    det = [e for e in relations.entries if e.label in ("a d", "d a")]
    coassoc = coact.check_cocommutativity_square(delta, delta)
    ok = (relations.ok and len(relations.entries) == 30
          and len(det) == 2 and all(e.ok for e in det)
          and coassoc.ok and len(coassoc.entries) == 4)
    _report("2 comultiplication (relations incl. determinant, "
            "coassociativity; exact)", ok)


def test_criterion_3_coaction():
    bundle = builtin("coaction")
    delta_h = bundle.morphism("DeltaH")
    relations = coact.check_relations_preserved(delta_h)
    square = coact.check_cocommutativity_square(delta_h, bundle.morphism("Delta"))
    stars = coact.check_star_equivariance(delta_h)
    ok = (relations.ok and len(relations.entries) == 6
          and square.ok and len(square.entries) == 3 and stars.ok)
    _report("3 coaction (relations, coaction identity on x y w, "
            "star-equivariance; exact)", ok)


def test_criterion_4_classical_limit():
    classical = builtin("classical")
    delta = builtin("lorentz").morphism("Delta")
    delta_h = builtin("coaction").morphism("DeltaH")
    ok = coact.classical_limit_compare(delta, classical.morphism("Delta")).ok
    ok &= coact.classical_limit_compare(delta_h, classical.morphism("DeltaH")).ok
    _report("4 classical-limit (q = 1 against the classical "
            "comultiplication and coaction; exact)", ok)


def test_criterion_5_cocycle_identities():
    ok = True
    for s in S_VALUES:
        params = cc.CocycleParams(s)
        for (result,) in (cc.check_cocycle_identity([params], 10000, 1, radius=2.0),
                          cc.check_sumup([params], 10000, 1, radius=2.0),
                          cc.check_omega_identity([params], 10000, 1, radius=2.0)):
            ok &= result.max_residual < TOL
    _report("5 cocycle-identities (2-cocycle, psi* translation, omega; "
            "1e-12 over 10^4 samples)", ok)


def test_criterion_6_operator_lab():
    ok = True
    for p, q in PQ_PAIRS:
        model = oplab.build_pq_pair(p, q)
        mu2 = oplab.check_def_mu2(model, samples=1000, seed=7)
        qq = oplab.check_QQstar(model, samples=1000, seed=7)
        twrs = oplab.check_twrs(model, samples=1000, seed=7)
        ok &= mu2.max_residual < TOL
        ok &= qq.max_residual < TOL
        ok &= twrs.max_residual < TOL
        if p == 1.0 and q == 1.0:
            # both commuting-pair identities, both off-diagonals, both
            # commutation relations, and both core identities: exactly zero
            named = dict(mu2.parts) | dict(twrs.parts)
            named |= {k: v for k, v in qq.parts if "= 0" in k}
            ok &= all(v == 0.0 for v in named.values())
    _report("6 operator-lab (mu2, QQ* diagonality and closed forms, "
            "commutation and core identities; 1e-12, (1,1) exact)", ok)


def test_criterion_7_cross_layer_consistency():
    ok = True
    for s in S_VALUES:
        result = oplab.check_symbolic_consistency(s, samples=1000, seed=7)
        ok &= result.max_residual < TOL
    _report("7 cross-layer consistency (p^2 = t^-1, q^2 = t vs symbolic "
            "q^{+-4}; 1e-12)", ok)
