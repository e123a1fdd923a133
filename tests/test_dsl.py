"""Parser, serializer, diagnostics, and the builtin transcriptions."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmink.dsl import (BUILTIN_NAMES, DslError, ParsedFile, _load_source,
                       builtin, parse, parse_expression, render_poly, serialize,
                       serialize_file)
from qmink.ncalg import NCPolynomial, Presentation, check_local_confluence
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


def test_loading_every_builtin_closes_each_algebra_and_validates_once(monkeypatch):
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
    assert sorted(validated) == [
        ("classical_lorentz", "Delta"), ("classical_minkowski", "DeltaH"),
        ("lorentz", "Delta"), ("minkowski", "DeltaH")]


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
    assert coaction.uses == ["minkowski", "lorentz"]
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


def test_serializer_keeps_the_use_line():
    text = serialize_file(parse(_load_source("coaction"), "coaction.qalg"))
    assert text.startswith("use minkowski, lorentz;\n")
    assert "algebra" not in text
    assert "morphism Delta " not in text
    assert "morphism DeltaH : minkowski -> minkowski @ lorentz {" in text


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


def test_scalar_rendering_in_rules():
    mink = builtin("minkowski").presentation("minkowski")
    rule = next(r for r in mink.rules
                if r.lhs == (mink.index_of("w"), mink.index_of("x")))
    assert render_poly(rule.rhs, mink) == "q^-4 x w"


def test_round_trip_of_builtin_files():
    for name in BUILTIN_NAMES:
        parsed = parse(_load_source(name), f"{name}.qalg")
        text = serialize_file(parsed)
        reparsed = parse(text, f"{name}.qalg#canonical")
        assert reparsed.presentations == parsed.presentations
        for mname, m in parsed.morphisms.items():
            m2 = reparsed.morphisms[mname]
            assert m2.domain == m.domain
            assert m2.codomain == m.codomain
            assert m2.images == m.images
        # canonical form is a serializer fixpoint
        assert serialize_file(reparsed) == text


def test_empty_presentation_serializes_to_header_only():
    assert serialize(Presentation("empty", ())) == "algebra empty {\n}\n"
    reparsed = parse(serialize(Presentation("empty", ())))
    assert reparsed.presentations["empty"].generators == ()


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
    source = parse(_load_source("lorentz"), "lorentz.qalg")
    rules = source.presentations["lorentz"].rules
    assert all(rule in rules for rule in parsed.presentations["lorentz"].rules)
    assert parsed.morphisms["Delta"].images == source.morphisms["Delta"].images


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
        assert pres.rules[0].rhs == NCPolynomial.word(
            uv, Scalar.of(Fraction(scale)) * want)
        text = serialize_file(parsed)
        again = parse(text)
        assert again.presentations == parsed.presentations
        assert serialize_file(again) == text


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


@settings(max_examples=40, deadline=None)
@given(random_presentations())
def test_parse_serialize_round_trip(src):
    parsed = parse(src)
    text = serialize_file(parsed)
    again = parse(text)
    assert again.presentations == parsed.presentations
    assert serialize_file(again) == text


@settings(max_examples=40, deadline=None)
@given(random_presentations(), st.integers(0, 10**6))
def test_parsing_is_deterministic(src, salt):
    assert parse(src).presentations == parse(src).presentations


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
