"""Morphism machinery: the comultiplication, the coaction, and their checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmink import coact
from qmink.coact import Morphism
from qmink.dsl import BUILTIN_NAMES, builtin, parse_expression
from qmink.ncalg import NCPolynomial, tensor
from qmink.scalars import GaussianRational, Scalar


def delta():
    return builtin("lorentz").morphism("Delta")


def delta_h():
    return builtin("coaction").morphism("DeltaH")


# -- apply ---------------------------------------------------------------------


def test_apply_on_generators():
    m = delta()
    image = m.apply(m.domain.gen("a"))
    assert image == parse_expression("a@a + b@c", m.codomain)


def test_apply_is_unital():
    m = delta()
    assert m.apply(NCPolynomial.unit()) == NCPolynomial.unit()


def test_coaction_image_of_y():
    m = delta_h()
    expected = parse_expression("x@b' b + w@b' d + w'@d' b + y@d' d", m.codomain)
    assert m.apply(m.domain.gen("y")) == m.codomain.normalize(expected)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_apply_is_multiplicative(seed):
    m = delta()
    rng = random.Random(seed)

    def rand_poly():
        out = NCPolynomial.zero()
        for _ in range(2):
            word = tuple(rng.randrange(8) for _ in range(rng.randint(0, 3)))
            coeff = Scalar.of(GaussianRational.of(rng.randint(-2, 2), 0),
                              rng.randint(-1, 1))
            out = out + NCPolynomial.word(word, coeff)
        return out

    p, r = rand_poly(), rand_poly()
    assert m.apply(p * r) == m.codomain.normalize(m.apply(p) * m.apply(r))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_factorwise_apply_matches_oracle_on_free_product(seed):
    """Random images of degree <= 3 into a confluent builtin codomain: apply
    must equal the random-strategy normal form of the whole free product."""
    rng = random.Random(seed)
    lor = builtin("lorentz").presentation("lorentz")
    mink = builtin("minkowski").presentation("minkowski")
    dom, cod = rng.choice([(mink, lor), (lor, mink), (mink, tensor(lor, lor))])

    def rand_poly(pres, terms):
        out = NCPolynomial.zero()
        for _ in range(terms):
            word = tuple(rng.randrange(len(pres.generators))
                         for _ in range(rng.randint(0, 3)))
            coeff = Scalar.of(GaussianRational.of(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1)),
                rng.randint(-2, 2))
            out = out + NCPolynomial.word(word, coeff)
        return out

    images = {i: rand_poly(cod, 2) for i in range(len(dom.generators))}
    m = Morphism("random", dom, cod, images)
    poly = rand_poly(dom, 3)
    free = NCPolynomial.zero()
    for word, coeff in poly.terms.items():
        prod = NCPolynomial.unit(coeff)
        for i in word:
            prod = prod * images[i]
        free = free + prod
    assert m.apply(poly) == cod.normalize(free, rng=random.Random(seed + 1))


def test_apply_rejects_foreign_words():
    m = delta_h()
    alien = NCPolynomial.word((11,))
    with pytest.raises(ValueError):
        m.apply(alien)


def test_missing_generator_image_is_an_error():
    lor = builtin("lorentz").presentation("lorentz")
    with pytest.raises(ValueError):
        Morphism.from_unstarred("bad", lor, lor, {})


# -- relation preservation -----------------------------------------------------


def test_comultiplication_preserves_all_relations():
    report = coact.check_relations_preserved(delta())
    assert report.ok
    assert len(report.entries) == 30
    det = next(e for e in report.entries if e.label == "a d")
    assert det.residual.is_zero()


def test_coaction_preserves_all_relations():
    report = coact.check_relations_preserved(delta_h())
    assert report.ok
    assert len(report.entries) == 6


def test_relation_failure_is_reported_with_residual():
    lor = builtin("lorentz").presentation("lorentz")
    lor2 = tensor(lor, lor)
    # a deliberately wrong comultiplication: the determinant relation breaks
    images = {lor.index_of(n): parse_expression(f"{n}@{n}", lor2)
              for n in ("a", "b", "c", "d")}
    wrong = Morphism.from_unstarred("wrong", lor, lor2, images)
    report = coact.check_relations_preserved(wrong)
    assert not report.ok
    labels = [e.label for e in report.failures()]
    assert "a d" in labels and "d a" in labels


# -- leg extension and the squares -----------------------------------------------


def test_leg_extend_left_acts_on_left_leg():
    m = delta()
    lor = m.domain
    ext = coact.leg_extend(m, "left", lor)
    probe = parse_expression("a@1", ext.domain)
    expected = parse_expression("a@a@1 + b@c@1", ext.codomain)
    assert ext.apply(probe) == expected


def test_leg_extend_right_acts_on_right_leg():
    m = delta()
    lor = m.domain
    ext = coact.leg_extend(m, "right", lor)
    probe = parse_expression("1@a", ext.domain)
    expected = parse_expression("1@a@a + 1@b@c", ext.codomain)
    assert ext.apply(probe) == expected


def test_leg_extend_of_identity_is_identity():
    lor = builtin("lorentz").presentation("lorentz")
    ident = Morphism.identity(lor)
    ext = coact.leg_extend(ident, "left", lor)
    probe = parse_expression("a@c + b@1", ext.domain)
    assert ext.apply(probe) == ext.domain.normalize(probe)


def test_coassociativity_with_frozen_expansion():
    m = delta()
    left = coact.leg_extend(m, "left", m.domain)
    once = m.apply(m.domain.gen("a"))
    twice = left.apply(once)
    expected = parse_expression("a@a@a + b@c@a + a@b@c + b@d@c", left.codomain)
    assert twice == left.codomain.normalize(expected)
    right = coact.leg_extend(m, "right", m.domain)
    assert right.apply(once) == twice


def test_coassociativity_square():
    report = coact.check_cocommutativity_square(delta(), delta(),
                                                ("a", "b", "c", "d"))
    assert report.ok


def test_coaction_identity_square():
    report = coact.check_cocommutativity_square(delta_h(), delta(),
                                                ("x", "y", "w"))
    assert report.ok


def test_square_type_checks():
    with pytest.raises(ValueError):
        coact.check_cocommutativity_square(delta(), delta_h(), ("a",))


# -- star equivariance -----------------------------------------------------------


def test_coaction_image_of_x_is_self_adjoint():
    m = delta_h()
    image = m.apply(m.domain.gen("x"))
    assert m.codomain.normalize(m.codomain.star(image)) == image


def test_comultiplication_of_starred_generator():
    m = delta()
    image = m.apply(m.domain.gen("a'"))
    assert image == m.codomain.normalize(
        parse_expression("a'@a' + b'@c'", m.codomain))


def test_star_equivariance_reports():
    assert coact.check_star_equivariance(delta()).ok
    assert coact.check_star_equivariance(delta_h()).ok


# -- classical limit ---------------------------------------------------------------


def test_classical_limit_of_comultiplication():
    classical = builtin("classical").morphism("Delta")
    assert coact.classical_limit_compare(delta(), classical).ok


def test_classical_limit_of_coaction():
    classical = builtin("classical").morphism("DeltaH")
    assert coact.classical_limit_compare(delta_h(), classical).ok


def test_classical_limit_of_identity_against_itself():
    pres = builtin("classical").presentation("classical_minkowski")
    ident = Morphism.identity(pres)
    assert coact.classical_limit_compare(ident, ident).ok


def test_classical_limit_mismatch_is_reported():
    quantum = delta_h()
    classical = builtin("classical")
    wrong_ref = classical.morphism("Delta")  # wrong morphism entirely
    with pytest.raises(ValueError):
        coact.classical_limit_compare(quantum, wrong_ref)


def test_star_equivariance_of_identity_morphism():
    lor = builtin("lorentz").presentation("lorentz")
    assert coact.check_star_equivariance(Morphism.identity(lor)).ok


def test_failed_check_renders_residual_in_dsl_syntax():
    lor = builtin("lorentz").presentation("lorentz")
    lor2 = tensor(lor, lor)
    images = {lor.index_of(n): parse_expression(f"{n}@{n}", lor2)
              for n in ("a", "b", "c", "d")}
    wrong = Morphism.from_unstarred("wrong", lor, lor2, images)
    report = coact.check_relations_preserved(wrong)
    entry = next(e for e in report.failures() if e.label == "a d")
    # the rendered residual parses back over the codomain and re-normalizes
    # to the same polynomial, so failures are replayable
    assert parse_expression(entry.rendered, lor2) == entry.residual


def test_builtin_morphisms_are_validated():
    assert delta().validated
    assert delta_h().validated
    vreport = builtin("classical").morphism("DeltaH").validate()
    assert vreport.ok


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_morphism_images_are_in_normal_form(name):
    for m in builtin(name).morphisms.values():
        assert m.codomain.star_closed
        for img in m.images.values():
            assert m.codomain.normalize(img) == img


def test_coaction_image_of_x_is_stored_in_normal_form():
    m = delta_h()
    stored = m.images[m.domain.index_of("x")]
    assert stored == parse_expression(
        "y@c c' + q^-4 w@c a' + q^-4 w'@a c' + x@a a'", m.codomain)


def test_invalid_morphism_is_not_marked_valid():
    lor = builtin("lorentz").presentation("lorentz")
    lor2 = tensor(lor, lor)
    images = {lor.index_of(n): parse_expression(f"{n}@{n}", lor2)
              for n in ("a", "b", "c", "d")}
    wrong = Morphism.from_unstarred("wrong", lor, lor2, images)
    wrong.validate()
    assert not wrong.validated


def test_flipping_one_constant_breaks_star_consistency():
    """Flipping a single deformation constant makes the relation set
    star-inconsistent: its closure would need the torsion relation
    (1 - q^8) x w' = 0, whose leading coefficient is not invertible."""
    import pytest as _pytest
    from qmink.dsl import _load_source, parse
    from qmink.ncalg import UnorientableRuleError, star_closure
    src = _load_source("minkowski").replace("rel w x = q^-4 x w;",
                                            "rel w x = q^4 x w;")
    parsed = parse(src, "mutated.qalg")
    with _pytest.raises(UnorientableRuleError):
        star_closure(parsed.presentations["minkowski"])


def test_wrong_commutation_constants_are_caught_by_the_coaction_check():
    """Flipping the (x, w) pair's constants consistently (so the star
    closure still goes through) must break the coaction's relation check:
    the verifier is sensitive to the scalars, not just the words."""
    from qmink.dsl import _load_source, parse
    from qmink.ncalg import star_closure
    coaction = _load_source("coaction")
    src = (_load_source("minkowski")
           .replace("rel w x = q^-4 x w;", "rel w x = q^4 x w;")
           .replace("rel w' x = q^4 x w';", "rel w' x = q^-4 x w';")
           + _load_source("lorentz")
           + coaction[coaction.index("morphism DeltaH"):])
    parsed = parse(src, "mutated.qalg")
    mink = star_closure(parsed.presentations["minkowski"])
    lor = star_closure(parsed.presentations["lorentz"])
    images = parsed.morphisms["DeltaH"].images
    wrong = Morphism("DeltaH", mink, tensor(mink, lor), images)
    report = coact.check_relations_preserved(wrong)
    assert not report.ok
    # the flipped pair fails directly; the mixing of generators inside the
    # images spreads the damage to other relations as well
    assert {"w x", "w' x"} <= {e.label for e in report.failures()}


# -- numeric anchors for the classical references ---------------------------------
#
# The classical algebras are commutative, so their generators can be
# evaluated at honest matrices.  Checking the builtin morphism images
# against raw 2x2 arithmetic anchors the transcription independently of the
# rewrite engine; classical_limit_compare then carries the anchor to the
# deformed formulas.


def _eval_at(poly, assign):
    total = 0j
    for word, coeff in poly.terms.items():
        v = complex(float(coeff.subs_q_one().re), float(coeff.subs_q_one().im))
        for i in word:
            v *= assign[i]
        total += v
    return total


def _sl2(rng):
    a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    d = (1 + b * c) / a  # det = 1
    return ((a, b), (c, d))


def _hermitian(rng):
    x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
    w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return ((x, w), (w.conjugate(), y))


def _matmul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def _dagger(A):
    return tuple(tuple(A[j][i].conjugate() for j in range(2)) for i in range(2))


def _lorentz_assign(pres, M, leg):
    entries = {"a": M[0][0], "b": M[0][1], "c": M[1][0], "d": M[1][1]}
    out = {}
    for i, g in enumerate(pres.generators):
        if g.leg != leg or g.name not in entries:
            continue
        v = entries[g.name]
        out[i] = v.conjugate() if g.starred else v
    return out


def test_classical_comultiplication_matches_matrix_product():
    bundle = builtin("classical")
    delta = bundle.morphism("Delta")
    rng = random.Random(7)
    for _ in range(25):
        G1, G2 = _sl2(rng), _sl2(rng)
        assign = {**_lorentz_assign(delta.codomain, G1, 0),
                  **_lorentz_assign(delta.codomain, G2, 1)}
        P = _matmul(G1, G2)
        want = {"a": P[0][0], "b": P[0][1], "c": P[1][0], "d": P[1][1]}
        for name, expected in want.items():
            got = _eval_at(delta.images[delta.domain.index_of(name)], assign)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_classical_coaction_matches_matrix_conjugation():
    bundle = builtin("classical")
    delta_h = bundle.morphism("DeltaH")
    rng = random.Random(8)
    mink_entries = lambda H: {"x": H[0][0], "w": H[0][1], "y": H[1][1]}
    for _ in range(25):
        H, G = _hermitian(rng), _sl2(rng)
        assign = dict(_lorentz_assign(delta_h.codomain, G, 1))
        for i, g in enumerate(delta_h.codomain.generators):
            if g.leg == 0:
                v = mink_entries(H)[g.name]
                assign[i] = v.conjugate() if g.starred else v
        K = _matmul(_dagger(G), _matmul(H, G))  # the right action on matrices
        want = mink_entries(K)
        for name, expected in want.items():
            got = _eval_at(delta_h.images[delta_h.domain.index_of(name)], assign)
            assert abs(got - expected) <= 1e-11 * max(1.0, abs(expected))
