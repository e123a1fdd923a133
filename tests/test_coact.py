"""Morphism machinery: the comultiplication, the coaction, and their checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmink import coact
from qmink.coact import Morphism
from qmink.dsl import BUILTIN_NAMES, builtin, parse_expression
from qmink.ncalg import (Generator, NCPolynomial, Presentation, RewriteRule,
                         tensor)
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
    report = coact.check_cocommutativity_square(delta(), delta())
    assert report.ok


def test_coaction_identity_square():
    report = coact.check_cocommutativity_square(delta_h(), delta())
    assert report.ok


def test_squares_run_on_every_unstarred_generator_in_declaration_order():
    hopf = coact.check_cocommutativity_square(delta(), delta())
    assert [e.label for e in hopf.entries] == ["a", "d", "b", "c"]
    square = coact.check_cocommutativity_square(delta_h(), delta())
    assert [e.label for e in square.entries] == ["x", "y", "w"]


def test_each_square_builds_its_codomain_once(monkeypatch):
    built = []
    init = Presentation.__init__

    def counting_init(self, name, *args):
        built.append(name)
        init(self, name, *args)

    from qmink.dsl import _load_source, parse
    lorentz = parse(_load_source("lorentz"))  # a fresh copy, no product built
    monkeypatch.setattr(Presentation, "__init__", counting_init)
    delta = lorentz.morphism("Delta")
    assert coact.check_cocommutativity_square(delta, delta).ok
    assert built == ["lorentz@lorentz@lorentz"]


def test_square_type_checks():
    with pytest.raises(RuntimeError, match="does not type-check"):
        coact.check_cocommutativity_square(delta(), delta_h())


def test_leg_extend_rejects_a_bad_side():
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        coact.leg_extend(delta(), "middle", delta().domain)


def builtin_morphisms():
    """Every builtin morphism once (a `use`d one is the same object)."""
    found = {}
    for name in BUILTIN_NAMES:
        for m in builtin(name).morphisms.values():
            found.setdefault(id(m), m)
    return list(found.values())


def shifted(poly, off):
    return NCPolynomial({tuple(i + off for i in w): c for w, c in poly.terms.items()})


def two_branch_tensor(p1, p2):
    """The tensor product written out: p2's generators and rules moved past p1's."""
    off = len(p1.generators)
    gens = list(p1.generators) + [
        Generator(g.name, g.star_partner + off, g.starred, g.leg + p1.nlegs,
                  g.weight, g.heavy) for g in p2.generators]
    rules = list(p1.rules) + [
        RewriteRule(tuple(i + off for i in r.lhs), shifted(r.rhs, off))
        for r in p2.rules]
    rules += [RewriteRule((off + j, i), NCPolynomial.word((i, off + j)))
              for j in range(len(p2.generators)) for i in range(off)]
    return Presentation(f"{p1.name}@{p2.name}", gens,
                        sorted(rules, key=lambda r: r.lhs))


def two_branch_leg_extend(m, side, passive):
    """m (x) id and id (x) m, one branch each: the oracle for leg_extend."""
    if side == "left":
        images = dict(m.images)
        cod_block = len(m.codomain.generators)
        for j in range(len(passive.generators)):
            images[len(m.domain.generators) + j] = NCPolynomial.word((cod_block + j,))
        return Morphism(f"{m.name}*id", two_branch_tensor(m.domain, passive),
                        two_branch_tensor(m.codomain, passive), images)
    off = len(passive.generators)
    images = {i: NCPolynomial.word((i,)) for i in range(off)}
    for j, img in m.images.items():
        images[off + j] = shifted(img, off)
    return Morphism(f"id*{m.name}", two_branch_tensor(passive, m.domain),
                    two_branch_tensor(passive, m.codomain), images)


@pytest.mark.parametrize("side", ["left", "right"])
def test_leg_extend_matches_the_two_branch_construction(side):
    morphisms = builtin_morphisms()
    assert len(morphisms) == 4  # Delta and DeltaH, quantum and classical
    for m in morphisms:
        for passive in (m.domain, builtin("lorentz").presentation("lorentz")):
            got = coact.leg_extend(m, side, passive)
            want = two_branch_leg_extend(m, side, passive)
            assert got.name == want.name
            assert got.domain == want.domain
            assert got.codomain == want.codomain
            assert got.images == want.images


def random_normal_form(pres, rng):
    out = NCPolynomial.zero()
    for _ in range(3):
        word = tuple(rng.randrange(len(pres.generators))
                     for _ in range(rng.randint(0, 4)))
        coeff = Scalar.of(GaussianRational.of(rng.randint(-2, 2), rng.randint(-1, 1)),
                          rng.randint(-2, 2))
        out = out + NCPolynomial.word(word, coeff)
    return pres.normalize(out)


def residual_codomains():
    """Every builtin algebra, every builtin morphism's codomain, and the
    3-leg codomains of the coassociativity and coaction squares."""
    found = {}
    for name in BUILTIN_NAMES:
        for pres in builtin(name).presentations.values():
            found.setdefault(pres.name, pres)
    for m in builtin_morphisms():
        found.setdefault(m.codomain.name, m.codomain)
    for co in (delta(), delta_h()):
        square = coact.leg_extend(co, "left", delta().domain).codomain
        found.setdefault(square.name, square)
    return found


def test_a_difference_of_normal_forms_is_a_normal_form():
    # what lets each check skip normalizing its residual lhs - rhs
    codomains = residual_codomains()
    assert {"lorentz@lorentz@lorentz", "minkowski@lorentz@lorentz"} <= set(codomains)
    rng = random.Random(17)
    cancelled = 0
    for pres in codomains.values():
        for _ in range(8):
            p = random_normal_form(pres, rng)
            # q shares some of p's terms, so that p - q cancels some words
            shared = NCPolynomial({w: c for w, c in p.terms.items()
                                   if rng.random() < 0.5})
            q = random_normal_form(pres, rng) + shared
            assert pres.normalize(q) == q
            assert pres.normalize(p - q) == p - q
            cancelled += len(p.terms) + len(q.terms) > len((p - q).terms)
    assert cancelled


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
    with pytest.raises(RuntimeError, match="do not share a generator list"):
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
    """Every builtin morphism is a *-morphism, the two classical references
    included: no verdict reports those, so this test certifies them."""
    morphisms = {(m.domain.name, m.name): m for name in BUILTIN_NAMES
                 for m in builtin(name).morphisms.values()}
    assert sorted(morphisms) == [
        ("classical_lorentz", "Delta"), ("classical_minkowski", "DeltaH"),
        ("lorentz", "Delta"), ("minkowski", "DeltaH")]
    for m in morphisms.values():
        stars, relations = m.validate()
        assert stars.ok and relations.ok, m


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_morphism_images_are_in_normal_form(name):
    for m in builtin(name).morphisms.values():
        cod = m.codomain
        assert all(cod.normalize(cod.star(rule.as_polynomial())).is_zero()
                   for rule in cod.rules)
        for img in m.images.values():
            assert m.codomain.normalize(img) == img


def test_coaction_image_of_x_is_stored_in_normal_form():
    m = delta_h()
    stored = m.images[m.domain.index_of("x")]
    assert stored == parse_expression(
        "y@c c' + q^-4 w@c a' + q^-4 w'@a c' + x@a a'", m.codomain)


VALIDATION_FREE_STATE = {"name", "domain", "codomain", "images"}


def test_invalid_morphism_is_not_marked_valid():
    """validate() reports the failures and leaves the morphism as it was."""
    lor = builtin("lorentz").presentation("lorentz")
    lor2 = tensor(lor, lor)
    images = {lor.index_of(n): parse_expression(f"{n}@{n}", lor2)
              for n in ("a", "b", "c", "d")}
    wrong = Morphism.from_unstarred("wrong", lor, lor2, images)
    before = dict(vars(wrong))
    stars, relations = wrong.validate()
    assert stars.ok and not relations.ok
    assert vars(wrong) == before and set(before) == VALIDATION_FREE_STATE


def test_validate_is_star_equivariance_then_relations():
    lor = builtin("lorentz").presentation("lorentz")
    images = dict(delta().images)
    images[lor.index_of("a'")] = images[lor.index_of("a")]  # a wrong image for a'
    wrong = Morphism("wrong", lor, delta().codomain, images)
    morphisms = [m for name in BUILTIN_NAMES for m in builtin(name).morphisms.values()]
    for m in morphisms + [wrong]:
        assert m.validate() == (coact.check_star_equivariance(m),
                                coact.check_relations_preserved(m))
    stars, _ = wrong.validate()
    assert [e.label for e in stars.failures()] == ["a", "a'"]


def test_a_wrong_shipped_morphism_loads_and_fails_check_hopf(monkeypatch,
                                                            capsys):
    """With a -> a@a + b@c changed to a -> a@a in the shipped lorentz.qalg,
    loading validates nothing, so a command that does not read Delta runs
    as usual, and check hopf reports the failure as a verdict (exit 1) with
    a residual that replays."""
    import qmink.dsl
    from qmink.cli import main
    source = qmink.dsl._load_source
    monkeypatch.setattr(qmink.dsl, "_load_source", lambda name: (
        source(name).replace("a -> a@a + b@c;", "a -> a@a;")
        if name == "lorentz" else source(name)))
    builtin.cache_clear()
    try:
        assert main(["normalize", "lorentz", "d a"]) == 0
        assert capsys.readouterr().out == "1 + b c\n"
        assert main(["check", "hopf"]) == 1
    finally:
        builtin.cache_clear()
    out = capsys.readouterr().out
    assert ("[FAIL] comultiplication preserves relations 4 nonzero residuals; "
            "first at d a: -b c@b c - d b@d c") in out
    assert "[pass] star-equivariance" in out
    assert "overall: FAIL" in out


def test_loader_names_the_morphism_whose_image_is_not_in_normal_form(monkeypatch):
    """A `normalize` that does not return a normal form (here it doubles its
    result on the tensor codomain) is a fault of qmink, not of the text: it
    is a RuntimeError naming the morphism, raised where the images are
    built, so it holds under python -O too."""
    normalize = Presentation.normalize

    def doubling(pres, poly, **kwargs):
        nf = normalize(pres, poly, **kwargs)
        return nf + nf if pres.nlegs > 1 else nf

    monkeypatch.setattr(Presentation, "normalize", doubling)
    builtin.cache_clear()
    try:
        with pytest.raises(RuntimeError) as exc:
            builtin("lorentz")
    finally:
        builtin.cache_clear()
    assert str(exc.value) == "morphism Delta: an image is not in normal form"


@pytest.mark.parametrize("which, name", [("hopf", "Delta"),
                                         ("coaction", "DeltaH")])
def test_a_check_validates_the_morphism_it_reports_once(monkeypatch, capsys,
                                                        which, name):
    """Loading the builtins validates nothing; the suite validates the one
    morphism it reports, once."""
    from qmink.cli import main
    counted = {"relations": [], "stars": []}
    for key, attr in (("relations", "check_relations_preserved"),
                      ("stars", "check_star_equivariance")):
        def counting(m, key=key, check=getattr(coact, attr)):
            counted[key].append(m.name)
            return check(m)
        monkeypatch.setattr(coact, attr, counting)
    builtin.cache_clear()
    try:
        assert main(["check", which]) == 0
    finally:
        builtin.cache_clear()
    assert "overall: PASS" in capsys.readouterr().out
    assert counted == {"relations": [name], "stars": [name]}


@pytest.mark.parametrize("run, bundle, name, kind", [
    ("run_hopf_suite", "lorentz", "Delta", "comultiplication"),
    ("run_coaction_suite", "coaction", "DeltaH", "coaction")])
def test_the_suite_reports_what_a_fresh_validation_finds(monkeypatch, run,
                                                         bundle, name, kind):
    from qmink import suites
    m = builtin(bundle).morphism(name)
    validated, validate = [], Morphism.validate

    def counting(self):
        validated.append(self)
        return validate(self)

    monkeypatch.setattr(Morphism, "validate", counting)
    checks = getattr(suites, run)().checks
    assert validated == [m]
    assert checks[0] == suites._symbolic_check(
        f"{kind} preserves relations", coact.check_relations_preserved(m))
    assert checks[2] == suites._symbolic_check(
        "star-equivariance", coact.check_star_equivariance(m))
    assert set(vars(m)) == VALIDATION_FREE_STATE


def test_flipping_one_constant_breaks_star_consistency():
    """Flipping a single deformation constant makes the relation set
    star-inconsistent: its closure would need the torsion relation
    (1 - q^8) x w' = 0, whose leading coefficient is not invertible, so
    parsing it fails at the algebra's name."""
    from qmink.dsl import DslError, _load_source, parse
    src = _load_source("minkowski").replace("rel w x = q^-4 x w;",
                                            "rel w x = q^4 x w;")
    with pytest.raises(DslError, match=r"^mutated\.qalg:6:9: star closure of "
                       r"minkowski: cannot orient \(1 - q\^8\) x w' = 0"):
        parse(src, "mutated.qalg")


def test_wrong_commutation_constants_are_caught_by_the_coaction_check():
    """Flipping the (x, w) pair's constants consistently (so the star
    closure still goes through) must break the coaction's relation check:
    the verifier is sensitive to the scalars, not just the words."""
    from qmink.dsl import _load_source, parse
    coaction = _load_source("coaction")
    src = (_load_source("minkowski")
           .replace("rel w x = q^-4 x w;", "rel w x = q^4 x w;")
           .replace("rel w' x = q^4 x w';", "rel w' x = q^-4 x w';")
           + _load_source("lorentz")
           + coaction[coaction.index("morphism DeltaH"):])
    wrong = parse(src, "mutated.qalg").morphisms["DeltaH"]
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
