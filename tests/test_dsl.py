"""Parser, star closure at parse time, diagnostics, and the builtin
transcriptions."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmink.dsl import (BUILTIN_NAMES, DslError, ParsedFile, _load_source,
                       builtin, builtin_algebra, parse, parse_expression,
                       render_poly)
from qmink.ncalg import NCPolynomial, check_local_confluence
from qmink.scalars import Scalar


def test_builtin_lorentz_has_eight_generators():
    pres = builtin("lorentz").presentation("lorentz")
    assert [g.display() for g in pres.generators] == \
        ["a", "d", "b", "c", "a'", "d'", "b'", "c'"]


def test_builtin_minkowski_has_four_generators():
    pres = builtin("minkowski").presentation("minkowski")
    assert [g.display() for g in pres.generators] == ["x", "y", "w", "w'"]
    assert pres.generators[0].star_partner == 0  # x self-adjoint
    assert pres.generators[1].star_partner == 1  # y self-adjoint
    assert pres.generators[2].star_partner == 3  # w* = w'


def test_unknown_builtin():
    with pytest.raises(KeyError):
        builtin("poincare")


def test_builtin_algebra_is_the_declaring_files_object():
    names = set()
    for file in BUILTIN_NAMES:
        for name, pres in builtin(file).presentations.items():
            assert builtin_algebra(name) is pres
            names.add(name)
    assert len(names) == 4
    with pytest.raises(DslError, match="no builtin algebra named 'poincare'"):
        builtin_algebra("poincare")


def test_builtin_rule_orientations():
    lor = builtin("lorentz").presentation("lorentz")
    # a c' = t^-1 c' a  is stored sorted:  c' a -> q^-4 a c'
    rule = next(r for r in lor.rules
                if r.lhs == (lor.index_of("c'"), lor.index_of("a")))
    assert rule.rhs == parse_expression("q^-4 a c'", lor)
    mink = builtin("minkowski").presentation("minkowski")
    rule = next(r for r in mink.rules
                if r.lhs == (mink.index_of("w'"), mink.index_of("w")))
    assert rule.rhs == parse_expression("w w'", mink)


def test_builtin_comultiplication_images():
    bundle = builtin("coaction")
    delta = bundle.morphism("Delta")
    lor2 = delta.codomain
    a = delta.domain.index_of("a")
    assert delta.images[a] == parse_expression("a@a + b@c", lor2)


def test_coaction_shares_the_standalone_builtin_objects():
    coaction = builtin("coaction")
    assert list(coaction.presentations) == ["minkowski", "lorentz"]
    assert list(coaction.morphisms) == ["Delta", "DeltaH"]
    for name in ("lorentz", "minkowski"):
        assert coaction.presentation(name) is builtin(name).presentation(name)
    assert coaction.morphism("Delta") is builtin("lorentz").morphism("Delta")


def test_loading_every_builtin_closes_each_algebra_and_validates_nothing(
        monkeypatch):
    import qmink.dsl
    from qmink.coact import Morphism
    closed, validated = [], []
    star_closure, validate = qmink.dsl.star_closure, Morphism.validate

    def counting_closure(pres):
        closed.append(pres.name)
        return star_closure(pres)

    def counting_validate(m):
        validated.append((m.domain.name, m.name))
        return validate(m)

    monkeypatch.setattr(qmink.dsl, "star_closure", counting_closure)
    monkeypatch.setattr(Morphism, "validate", counting_validate)
    builtin.cache_clear()
    for name in BUILTIN_NAMES:
        builtin(name)
    assert sorted(closed) == ["classical_lorentz", "classical_minkowski",
                              "lorentz", "minkowski"]
    assert validated == []


def test_use_brings_builtin_objects_into_scope():
    parsed = parse("use lorentz;\n"
                   "morphism flip : lorentz -> lorentz { a -> a; b -> b; "
                   "c -> c; d -> d; }\n")
    lor = builtin("lorentz")
    assert list(parsed.presentations) == ["lorentz"]
    assert parsed.presentations["lorentz"] is lor.presentation("lorentz")
    assert parsed.morphisms["Delta"] is lor.morphism("Delta")
    assert list(parsed.morphisms) == ["Delta", "flip"]
    # the same builtin object may come into scope twice
    assert parse("use lorentz, coaction;").presentations["lorentz"] is \
        lor.presentation("lorentz")


def test_builtin_returns_the_parsed_file():
    coaction = builtin("coaction")
    assert isinstance(coaction, ParsedFile)
    assert coaction.presentation("lorentz") is builtin("lorentz").presentation("lorentz")
    assert coaction.morphism("DeltaH") is coaction.morphisms["DeltaH"]
    assert builtin("coaction") is coaction  # loaded once per process


def test_use_of_unknown_builtin_is_located_at_its_token():
    with pytest.raises(DslError) as err:
        parse("use lorentz,\n    poincare;\n")
    assert (err.value.line, err.value.col) == (2, 5)
    assert "unknown builtin 'poincare'" in err.value.message


def test_use_names_builtins_only(tmp_path):
    (tmp_path / "mine.qalg").write_text("algebra mine { gen u; }\n")
    with pytest.raises(DslError) as err:
        parse("use mine;", str(tmp_path / "user.qalg"))
    assert "unknown builtin 'mine'" in err.value.message


def test_redeclaring_an_imported_algebra_is_a_located_error():
    with pytest.raises(DslError) as err:
        parse("use minkowski;\nalgebra minkowski { gen x; }\n")
    assert err.value.line == 2
    assert "algebra minkowski declared twice" in err.value.message
    with pytest.raises(DslError) as err:
        parse("algebra lorentz { gen a; }\nuse lorentz;\n")
    assert (err.value.line, err.value.col) == (2, 5)
    assert "algebra lorentz declared twice" in err.value.message


def test_redeclaring_an_imported_morphism_is_a_located_error():
    src = ("use lorentz;\n"
           "morphism Delta : lorentz -> lorentz { a -> a; b -> b; c -> c; "
           "d -> d; }\n")
    with pytest.raises(DslError) as err:
        parse(src)
    assert err.value.line == 2
    assert "morphism Delta declared twice" in err.value.message


def test_use_is_a_reserved_word():
    with pytest.raises(DslError) as err:
        parse("algebra tiny {\n  gen a use;\n}\n")
    assert (err.value.line, err.value.col) == (2, 9)
    assert "invalid generator name 'use'" in err.value.message


def test_every_builtin_is_confluent():
    for name in BUILTIN_NAMES:
        for pres in builtin(name).presentations.values():
            assert check_local_confluence(pres) == []


def test_located_error_for_undeclared_generator():
    src = "algebra broken {\n  gen a;\n  rel a b = b a;\n}\n"
    with pytest.raises(DslError) as err:
        parse(src)
    assert err.value.line == 3
    assert "unknown generator 'b'" in err.value.message


def test_located_error_for_unoriented_rule():
    src = "algebra broken {\n  gen a b;\n  rel a b = b a;\n}\n"
    with pytest.raises(DslError) as err:
        parse(src)
    assert "not order-decreasing" in err.value.message


def test_error_for_starred_image_declaration():
    src = ("algebra tiny { gen a; rel a' a = a a'; }\n"
           "morphism m : tiny -> tiny { a' -> a'; }\n")
    with pytest.raises(DslError) as err:
        parse(src)
    assert "unstarred" in err.value.message


def test_error_for_bad_selfadjoint_weight():
    src = "algebra tiny {\n  gen a;\n  selfadjoint a;\n  weight a = [1, 0];\n}\n"
    with pytest.raises(DslError) as err:
        parse(src)
    assert "star-fixed weight" in err.value.message


def test_error_for_a_weight_of_odd_length():
    src = ("algebra t {\n  gen a b;\n  weight a = [1, 2, 3];\n"
           "  weight b = [5];\n  rel b a = a b;\n}\n")
    with pytest.raises(DslError) as err:
        parse(src, "t.qalg")
    assert str(err.value) == ("t.qalg:3:3: weight of a has 3 entries; each "
                              "weight needs the same even number")


def test_error_for_weights_of_different_lengths():
    src = ("algebra t {\n  gen a b;\n  weight a = [1, 2];\n"
           "  weight b = [5, 6, 7, 8];\n  rel b a = a b;\n}\n")
    with pytest.raises(DslError) as err:
        parse(src, "t.qalg")
    assert str(err.value) == ("t.qalg:4:3: weight of b has 4 entries; each "
                              "weight needs the same even number")


def test_error_for_a_repeated_weight():
    src = ("algebra t {\n  gen a b;\n  weight a = [1, 2];\n"
           "  weight a = [3, 4];\n  rel b a = a b;\n}\n")
    with pytest.raises(DslError) as err:
        parse(src, "t.qalg")
    assert str(err.value) == "t.qalg:4:3: weight of a declared twice"


def test_a_coefficient_is_an_int_unless_it_has_a_denominator():
    pres = builtin("minkowski").presentation("minkowski")
    for text, want, kind in (("1/2 x", Fraction(1, 2), Fraction),
                             ("4/2 x", 2, int), ("3 x", 3, int)):
        (coeff,) = parse_expression(text, pres).terms.values()
        (c,) = coeff.terms.values()
        assert (c.re, c.im) == (want, 0) and type(c.re) is kind


def test_scalar_rendering_in_rules():
    mink = builtin("minkowski").presentation("minkowski")
    rule = next(r for r in mink.rules
                if r.lhs == (mink.index_of("w"), mink.index_of("x")))
    assert render_poly(rule.rhs, mink) == "q^-4 x w"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_builtin_text_parsed_by_path_is_the_builtin(name):
    parsed = parse(_load_source(name), f"{name}.qalg")
    assert parsed.presentations == builtin(name).presentations
    for mname, m in builtin(name).morphisms.items():
        again = parsed.morphisms[mname]
        assert (again.domain, again.codomain, again.images) == \
            (m.domain, m.codomain, m.images)


def test_every_parsed_algebra_is_star_closed():
    pres = parse("algebra plane {\n  gen u v;\n  rel v u = q^2 u v;\n}\n"
                 ).presentations["plane"]
    assert len(pres.rules) == 2
    for rule in pres.rules:
        assert pres.normalize(pres.star(rule.as_polynomial())).is_zero()
    assert render_poly(pres.normalize(parse_expression("v' u'", pres)), pres) \
        == "q^-2 u' v'"


def test_an_empty_algebra_has_no_generators():
    assert parse("algebra empty {\n}\n").presentations["empty"].generators == ()


def test_parse_expression_trailing_garbage():
    lor = builtin("lorentz").presentation("lorentz")
    with pytest.raises(DslError):
        parse_expression("a b }", lor)


def test_parse_expression_complex_scalars():
    lor = builtin("lorentz").presentation("lorentz")
    p = parse_expression("(1+i) q^2 a - 2*i b", lor)
    rendered = render_poly(p, lor)
    # words are listed in term order: b is lighter than a (a is heavy)
    assert rendered == "-2*i b + (1+i)*q^2 a"
    assert parse_expression(rendered, lor) == p
    # a group is read as a polynomial and need only reduce to a scalar
    assert parse_expression("(a - a) b", lor).is_zero()


@pytest.mark.parametrize("expr, col, message", [
    ("(a) b", 1, "a parenthesized factor must be a scalar"),
    ("2 (1 + b) a", 3, "a parenthesized factor must be a scalar"),
    ("(1 - - 1) a", 6, "expected a term"),
    ("() a", 2, "expected a term"),
])
def test_malformed_group_is_a_located_error(expr, col, message):
    lor = builtin("lorentz").presentation("lorentz")
    with pytest.raises(DslError) as err:
        parse_expression(expr, lor)
    assert (err.value.line, err.value.col) == (1, col)
    assert message in err.value.message


def test_unclosed_group_in_a_rel_fails_at_its_semicolon():
    src = "algebra t {\n  gen a b;\n  rel b a = (1;\n  rel b b = a;\n}\n"
    with pytest.raises(DslError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (3, 15)
    assert "expected ')'" in err.value.message


def test_readme_qalg_example_parses_and_matches_lorentz():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## The .qalg language\n", 1)[1]
    block = section.split("```\n", 2)[1]
    assert any("(" in line.split("#")[0] for line in block.splitlines())
    parsed = parse(block, "README.md")
    lorentz = builtin("lorentz")
    # the example transcribes the whole builtin, so its morphism validates
    assert parsed.presentations["lorentz"] == lorentz.presentation("lorentz")
    assert parsed.morphisms["Delta"].images == lorentz.morphism("Delta").images
    for m in parsed.morphisms.values():
        stars, relations = m.validate()
        assert stars.ok and relations.ok, m


SCALAR_FACTORS = {"3": Scalar.of(Fraction(3)), "1/2": Scalar.of(Fraction(1, 2)),
                  "i": Scalar.imag_unit(), "q": Scalar.q_power(1),
                  "q^2": Scalar.q_power(2), "q^-3": Scalar.q_power(-3)}


@pytest.mark.parametrize("factor", SCALAR_FACTORS)
def test_every_scalar_factor_round_trips_bare_and_in_parentheses(factor):
    want = SCALAR_FACTORS[factor]
    for coeff, scale in ((factor, 1), (f"({factor})", 1), (f"2 {factor}", 2),
                         (f"(2*{factor})", 2), (f"(({factor}) * 2)", 2)):
        src = f"algebra t {{\n  gen u v;\n  rel v u = {coeff} u v;\n}}\n"
        parsed = parse(src)
        pres = parsed.presentations["t"]
        uv = (pres.index_of("u"), pres.index_of("v"))
        rhs = pres.rules[0].rhs
        assert rhs == NCPolynomial.word(uv, Scalar.of(Fraction(scale)) * want)
        assert parse_expression(render_poly(rhs, pres), pres) == rhs


# -- grammar fuzz -------------------------------------------------------------

names = st.lists(st.sampled_from("nopuvz"), min_size=2, max_size=5, unique=True)


coefficient_texts = st.sampled_from(
    ("", "q ", "q^-3 ", "2 ", "1/2 ", "i ", "-i ", "2*i*q^2 ", "(1+i) ",
     "(1/2-3*i)*q^-1 ", "(1 + q^-4) ", "((1+i)) "))


@st.composite
def random_presentations(draw):
    """Commutation-style presentations with random scalar coefficients;
    rules are oriented toward the declared order so termination holds."""
    gen_names = draw(names)
    selfadj = set(draw(st.lists(st.sampled_from(gen_names), max_size=2,
                                unique=True)))
    lines = [f"algebra fuzz {{", "  gen " + " ".join(gen_names) + ";"]
    if selfadj:
        lines.append("  selfadjoint " + " ".join(
            n for n in gen_names if n in selfadj) + ";")
    n = len(gen_names)
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                coeff = draw(coefficient_texts)
                lines.append(f"  rel {gen_names[j]} {gen_names[i]} = "
                             f"{coeff}{gen_names[i]} {gen_names[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


FUZZ_ALGEBRA = parse("algebra fuzz {\n  gen n o p u;\n  selfadjoint o;\n}\n"
                     ).presentations["fuzz"]


@st.composite
def random_polynomials(draw):
    """Sums of random words over FUZZ_ALGEBRA's letters, starred ones
    included, with coefficients written as in a rel line."""
    letters = [g.display() for g in FUZZ_ALGEBRA.generators]
    terms = draw(st.lists(st.tuples(coefficient_texts, st.lists(
        st.sampled_from(letters), max_size=4)), min_size=1, max_size=5))
    text = "0" + "".join(
        (f" - {coeff[1:]}" if coeff.startswith("-") else f" + {coeff}")
        + (" ".join(word) or "1") for coeff, word in terms)
    return parse_expression(text, FUZZ_ALGEBRA)


@settings(max_examples=40, deadline=None)
@given(random_polynomials())
def test_render_parse_round_trip(poly):
    assert parse_expression(render_poly(poly, FUZZ_ALGEBRA), FUZZ_ALGEBRA) == poly


def _parse_outcome(src):
    try:
        return parse(src).presentations
    except DslError as err:
        return (err.line, err.col, err.message)


@settings(max_examples=40, deadline=None)
@given(random_presentations(), st.integers(0, 10**6))
def test_parsing_is_deterministic(src, salt):
    """Both parses give the same algebra, or the same located error (a
    coefficient such as 1 + q^-4 leaves the star closure unorientable)."""
    assert _parse_outcome(src) == _parse_outcome(src)


def test_zero_denominator_is_a_located_error():
    lor = builtin("lorentz").presentation("lorentz")
    with pytest.raises(DslError) as err:
        parse_expression("1/0 a", lor)
    assert "zero denominator" in err.value.message


def test_unoriented_rule_error_points_at_the_rel_line():
    src = "algebra broken {\n  gen a b;\n  rel b a = a b;\n  rel a b = b a;\n}\n"
    with pytest.raises(DslError) as err:
        parse(src)
    assert err.value.line == 4
