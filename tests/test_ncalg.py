"""Rewrite engine: normal forms, termination, confluence, tensors."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmink.coact import leg_extend
from qmink.dsl import _load_source, builtin, parse_expression
from qmink.ncalg import (Generator, NCPolynomial, Presentation, RewriteRule,
                         StepLimitExceeded, UnorientableRuleError,
                         check_local_confluence, check_termination, orient,
                         star_closure, tensor)
from qmink.scalars import GaussianRational, Scalar


def lorentz():
    return builtin("lorentz").presentation("lorentz")


def minkowski():
    return builtin("minkowski").presentation("minkowski")


def nf(pres, text):
    return pres.normalize(parse_expression(text, pres))


# -- abstract helpers ---------------------------------------------------------


def abstract_presentation(names, rules_spec):
    """Self-adjoint generators named in order; rules as (lhs, rhs-poly) strings."""
    gens = tuple(Generator(n, i) for i, n in enumerate(names))
    pres = Presentation("abstract", gens)
    rules = []
    for lhs_text, rhs_text in rules_spec:
        lhs = tuple(names.index(ch) for ch in lhs_text)
        rules.append(RewriteRule(lhs, parse_expression(rhs_text, pres)))
    return pres.with_rules(rules)


# -- normal forms -------------------------------------------------------------


def test_commutation_normal_forms():
    p = lorentz()
    assert nf(p, "b a") == parse_expression("a b", p)
    assert nf(p, "d a") == parse_expression("1 + b c", p)
    assert nf(p, "b' a") == parse_expression("q^4 a b'", p)


def test_minkowski_pair_constants():
    p = minkowski()
    assert nf(p, "w x") == parse_expression("q^-4 x w", p)
    assert nf(p, "w' x") == parse_expression("q^4 x w'", p)
    assert nf(p, "w y") == parse_expression("q^4 y w", p)
    assert nf(p, "w' y") == parse_expression("q^-4 y w'", p)
    assert nf(p, "w' w") == parse_expression("w w'", p)


def random_poly(pres, rng, terms=3, max_len=5):
    out = NCPolynomial.zero()
    n = len(pres.generators)
    for _ in range(terms):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(0, max_len)))
        coeff = Scalar.of(GaussianRational.of(rng.randint(-3, 3), rng.randint(-1, 1)),
                          rng.randint(-2, 2))
        out = out + NCPolynomial.word(word, coeff)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_normalize_is_idempotent(seed):
    p = lorentz()
    poly = random_poly(p, random.Random(seed))
    once = p.normalize(poly)
    assert p.normalize(once) == once


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_normalize_commutes_with_star_after_closure(seed):
    p = lorentz()
    poly = random_poly(p, random.Random(seed))
    assert p.normalize(p.star(poly)) == p.normalize(p.star(p.normalize(poly)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_dual_strategies_agree(seed):
    p = lorentz()
    rng = random.Random(seed)
    word = tuple(rng.randrange(8) for _ in range(rng.randint(0, 8)))
    poly = NCPolynomial.word(word)
    assert p.normalize(poly) == p.normalize(poly, rng=random.Random(seed + 1))


def test_step_limit_reports_nontermination():
    bad = abstract_presentation("ab", [("ab", "b a"), ("ba", "a b")])
    with pytest.raises(StepLimitExceeded):
        bad.normalize(parse_expression("a b", bad), step_limit=50)


# -- the deterministic strategy ------------------------------------------------


def plain_leftmost_normal_form(pres, poly):
    """Unindexed rewriting with the documented tie-break, as a reference."""
    out = NCPolynomial.zero()
    stack = list(poly.terms.items())
    while stack:
        word, coeff = stack.pop()
        hit = next(pres._matches(word), None)
        if hit is None:
            out = out + NCPolynomial.word(word, coeff)
            continue
        i, rule = hit
        for rw, rc in rule.rhs.terms.items():
            stack.append((word[:i] + rw + word[i + len(rule.lhs):], coeff * rc))
    return out


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("which", ["lorentz", "lorentz@lorentz"])
def test_memoized_normal_form_matches_random_strategy(which, seed):
    pres = lorentz() if which == "lorentz" else tensor(lorentz(), lorentz())
    rng = random.Random(seed)
    n = len(pres.generators)
    word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 40)))
    poly = NCPolynomial.word(word)
    assert pres.normalize(poly) == pres.normalize(poly, rng=random.Random(seed + 1))


def test_tie_break_is_leftmost_then_first_declared():
    long_first = abstract_presentation("abc", [("abc", "c"), ("ab", "b"), ("b", "a")])
    assert nf(long_first, "a b c") == parse_expression("c", long_first)
    assert nf(long_first, "c a b") == parse_expression("c a", long_first)
    short_first = abstract_presentation("abc", [("ab", "b"), ("abc", "c"), ("b", "a")])
    assert nf(short_first, "a b c") == parse_expression("a c", short_first)
    same_lhs = abstract_presentation("abc", [("ab", "c"), ("ab", "b")])
    assert nf(same_lhs, "c a b") == parse_expression("c c", same_lhs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_memo_keeps_the_deterministic_answer_without_confluence(seed):
    # the nonadjacent determinant order below is not confluent
    pres = abstract_presentation("abcd", [
        ("ba", "a b"), ("ca", "a c"), ("cb", "b c"), ("db", "b d"),
        ("dc", "c d"), ("da", "1 + b c"), ("ad", "1 + b c")])
    poly = random_poly(pres, random.Random(seed), terms=3, max_len=8)
    assert pres.normalize(poly) == plain_leftmost_normal_form(pres, poly)


def test_rule_with_zero_right_hand_side_annihilates():
    nilpotent = abstract_presentation("ab", [("aa", "0"), ("ba", "a b")])
    assert nf(nilpotent, "b a a").is_zero()
    assert nf(nilpotent, "a b a + b") == parse_expression("b", nilpotent)


def test_long_word_normalizes_without_recursion_error():
    p = minkowski()
    x, w = p.index_of("x"), p.index_of("w")
    # each of the 4 w's passes 296 x's: a chain of 1184 rewrites
    word = NCPolynomial.word((w,) * 4 + (x,) * 296)
    expected = NCPolynomial.word((x,) * 296 + (w,) * 4, Scalar.q_power(-4 * 1184))
    assert p.normalize(word) == expected


def test_rule_cycle_raises_under_the_memo_path():
    cycle = abstract_presentation("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(StepLimitExceeded):
        cycle.normalize(parse_expression("a", cycle), step_limit=1000)
    growth = abstract_presentation("a", [("a", "a a")])
    with pytest.raises(StepLimitExceeded):
        growth.normalize(parse_expression("a", growth), step_limit=50)


@pytest.mark.parametrize("name", ["classical_lorentz", "lorentz"])
def test_words_met_on_many_paths_are_rewritten_once(name):
    # a^20 d^20 resolves 20 determinant pairs; rewriting each path apart
    # takes at least 2^20 - 1 steps, merging equal words 4200
    pres = builtin("classical" if name == "classical_lorentz" else "lorentz").presentation(name)
    a, d, b, c = (pres.index_of(g) for g in "adbc")
    word = NCPolynomial.word((a,) * 20 + (d,) * 20)
    got = pres.normalize(word, step_limit=4200)
    with pytest.raises(StepLimitExceeded):
        pres.normalize(word, step_limit=4199)
    assert sorted(len(w) for w in got.words()) == list(range(0, 41, 2))
    if name == "classical_lorentz":
        # (a d)^20 = (1 + b c)^20 in the commutative limit
        expected = {(b,) * j + (c,) * j: Scalar.of(math.comb(20, j)) for j in range(21)}
        assert got.terms == expected


def test_scan_from_start_finds_the_leftmost_redex():
    # lhs lengths 1 and 3, and c a b matches both at its c: the first declared wins
    pres = abstract_presentation("abc", [("cab", "a"), ("c", "b"), ("bba", "a")])
    for n in range(7):
        for word in itertools.product(range(3), repeat=n):
            hit = pres.find_redex(word)
            for start in range(n + 1 if hit is None else hit[0] + 1):
                assert pres.find_redex(word, start) == hit


# -- tensor products: the leg sort ---------------------------------------------


def tensor_codomains():
    """Delta's and DeltaH's codomains, and the 3-leg codomains of the squares."""
    delta = builtin("lorentz").morphisms["Delta"]
    delta_h = builtin("coaction").morphisms["DeltaH"]
    squares = [leg_extend(co, "left", delta.domain).codomain for co in (delta, delta_h)]
    return {p.name: p for p in [delta.codomain, delta_h.codomain] + squares}


def cross_pair(pres):
    """y x for a letter y on the last leg and x = letter 0, and its sort x y."""
    y = max(range(len(pres.generators)), key=lambda i: pres.generators[i].leg)
    return NCPolynomial.word((y, 0)), NCPolynomial.word((0, y))


def assert_matches_random_strategy(pres, seed):
    """Random words across all legs, each with a leg-interleaving of itself."""
    rng = random.Random(seed)
    n = len(pres.generators)
    for trial in range(20):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 12)))
        legs = [pres.generators[i].leg for i in word]
        per_leg = {leg: [i for i in word if pres.generators[i].leg == leg]
                   for leg in legs}
        rng.shuffle(legs)
        other = tuple(per_leg[leg].pop(0) for leg in legs)
        poly = NCPolynomial({word: Scalar.q_power(1), other: Scalar.of(-1)})
        assert pres.normalize(poly) == pres.normalize(poly, rng=random.Random(trial))


def two_legs(rules):
    """a, b on leg 0 and c on leg 1, self-adjoint; rules as (lhs, rhs, q power)."""
    gens = tuple(Generator(n, i, leg=int(n == "c")) for i, n in enumerate("abc"))
    idx = "abc".index
    return Presentation("two-legs", gens, [
        RewriteRule(tuple(map(idx, lhs)),
                    NCPolynomial.word(tuple(map(idx, rhs)), Scalar.q_power(k)))
        for lhs, rhs, k in rules])


@pytest.mark.parametrize("name", ["lorentz@lorentz", "minkowski@lorentz",
                                  "lorentz@lorentz@lorentz",
                                  "minkowski@lorentz@lorentz", "two-legs"])
def test_leg_sort_matches_random_strategy(name):
    if name == "two-legs":
        pres = two_legs([("ba", "ab", 2), ("ca", "ac", 0), ("cb", "bc", 0)])
    else:
        pres = tensor_codomains()[name]
    # cross-leg commutations are no steps of the budget
    swapped, sorted_ = cross_pair(pres)
    assert pres.normalize(swapped, step_limit=0) == sorted_
    assert_matches_random_strategy(pres, name)


@pytest.mark.parametrize("rules", [
    [("ba", "ab", 2), ("ca", "ac", 1), ("cb", "bc", 0)],  # a q factor
    [("ba", "ab", 2), ("ca", "ac", 0)],  # c b does not commute
    [("ba", "ab", 0), ("bb", "c", 0), ("ca", "ac", 0), ("cb", "bc", 0)],
], ids=["q-factor", "missing-pair", "rhs-leaves-its-leg"])
def test_presentations_that_are_no_tensor_product_rewrite_each_swap(rules):
    pres = two_legs(rules)
    assert check_termination(pres).ok and check_local_confluence(pres) == []
    swapped, _ = cross_pair(pres)
    with pytest.raises(StepLimitExceeded):
        pres.normalize(swapped, step_limit=0)
    assert_matches_random_strategy(pres, len(rules))


# -- classical limit oracle ---------------------------------------------------


def classical_oracle(word, pres):
    """Independent commutative normal form with determinant substitution.

    Counts letters, then expands every (a, d) pair into 1 + b c recursively;
    the result is a dict sorted-word -> integer coefficient.
    """
    names = [g.display() for g in pres.generators]
    ia, id_, ib, ic = (names.index(k) for k in ("a", "d", "b", "c"))

    def expand(counts):
        counts = list(counts)
        if counts[ia] > 0 and counts[id_] > 0:
            counts[ia] -= 1
            counts[id_] -= 1
            out = {}
            with_bc = list(counts)
            with_bc[ib] += 1
            with_bc[ic] += 1
            for branch in (tuple(counts), tuple(with_bc)):
                for w, c in expand(branch).items():
                    out[w] = out.get(w, 0) + c
            return out
        sorted_word = tuple(i for i in range(len(names)) for _ in range(counts[i]))
        return {sorted_word: 1}

    counts = [0] * len(names)
    for i in word:
        counts[i] += 1
    # starred block: same expansion for (a', d')
    ia2, id2, ib2, ic2 = (names.index(k) for k in ("a'", "d'", "b'", "c'"))

    def expand2(counts):
        counts = list(counts)
        if counts[ia2] > 0 and counts[id2] > 0:
            counts[ia2] -= 1
            counts[id2] -= 1
            out = {}
            with_bc = list(counts)
            with_bc[ib2] += 1
            with_bc[ic2] += 1
            for branch in (tuple(counts), tuple(with_bc)):
                for w, c in expand2(branch).items():
                    out[w] = out.get(w, 0) + c
            return out
        return expand(counts)

    return expand2(counts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_classical_limit_is_commutative_sort_with_determinant(seed):
    pres = builtin("classical").presentation("classical_lorentz")
    rng = random.Random(seed)
    word = tuple(rng.randrange(8) for _ in range(rng.randint(0, 6)))
    got = pres.normalize(NCPolynomial.word(word))
    expected = {w: Scalar.of(c) for w, c in classical_oracle(word, pres).items()
                if c != 0}
    assert got.terms == expected


# -- homogeneity --------------------------------------------------------------


def _counts(word, n):
    out = [0] * n
    for i in word:
        out[i] += 1
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_normal_form_preserves_letters_modulo_determinant(seed):
    p = lorentz()
    names = [g.display() for g in p.generators]
    ia, id_, ib, ic = (names.index(k) for k in ("a", "d", "b", "c"))
    sa, sd, sb, sc = (names.index(k) for k in ("a'", "d'", "b'", "c'"))
    rng = random.Random(seed)
    word = tuple(rng.randrange(8) for _ in range(rng.randint(0, 6)))
    before = _counts(word, 8)
    for w in p.normalize(NCPolynomial.word(word)).words():
        diff = [b - a for b, a in zip(before, _counts(w, 8))]
        for (i1, i2, j1, j2) in ((ia, id_, ib, ic), (sa, sd, sb, sc)):
            assert diff[i1] == diff[i2] >= 0
            assert diff[j1] == diff[j2] <= 0
            assert -diff[j1] <= diff[i1]
            diff[i1] = diff[i2] = diff[j1] = diff[j2] = 0
        assert not any(diff)


# -- termination / confluence ---------------------------------------------------


def test_builtin_presentations_terminate_and_conflue():
    for pres in (lorentz(), minkowski()):
        assert check_termination(pres).ok
        assert check_local_confluence(pres) == []
    # normalize takes pending words greatest first in this order; every rule
    # lowering it means no word comes back once taken
    for pres in (lorentz(), minkowski(), tensor(minkowski(), lorentz()),
                 tensor(lorentz(), lorentz())):
        def key(w):
            return (pres.heavy_degree(w), len(w), w)
        assert all(key(w) < key(r.lhs) for r in pres.rules for w in r.rhs.words())


def test_two_cycle_fails_termination():
    bad = abstract_presentation("ab", [("ab", "b a"), ("ba", "a b")])
    report = check_termination(bad)
    assert not report.ok
    assert len(report.violations) == 1  # only ab -> ba increases


def test_empty_rule_set_passes():
    assert check_termination(abstract_presentation("ab", [])).ok
    assert check_local_confluence(abstract_presentation("ab", [])) == []


def test_no_overlap_no_critical_pair():
    # {ba -> ab, cb -> bc} with no (c, a) rule: the only overlap cba resolves
    # to distinct normal forms, so it IS a critical pair; without an overlap
    # ({ba -> ab} alone) there is nothing to check.
    assert check_local_confluence(
        abstract_presentation("abc", [("ba", "a b")])) == []
    pairs = check_local_confluence(
        abstract_presentation("abc", [("ba", "a b"), ("cb", "b c")]))
    assert [p.word for p in pairs] == [(2, 1, 0)]


def test_declaring_determinant_generators_nonadjacent_breaks_confluence():
    """Ordering the generators a < b < c < d hides the determinant redex
    inside sorted words (e.g. a b d), which leaves genuinely unresolved
    critical pairs; this is why the builtin order is a < d < b < c."""
    names = "abcd"
    gens = tuple(Generator(n, i, heavy=n in "ad") for i, n in enumerate(names))
    pres = Presentation("wrong-order", gens)
    rules_spec = [("ba", "a b"), ("ca", "a c"), ("cb", "b c"),
                  ("db", "b d"), ("dc", "c d"),
                  ("da", "1 + b c"), ("ad", "1 + b c")]
    rules = []
    for lhs_text, rhs_text in rules_spec:
        lhs = tuple(names.index(ch) for ch in lhs_text)
        rules.append(RewriteRule(lhs, parse_expression(rhs_text, pres)))
    pres = pres.with_rules(rules)
    assert check_termination(pres).ok
    assert check_local_confluence(pres) != []


# -- star closure ---------------------------------------------------------------


def declared(name):
    """The rules a builtin file declares, over its algebra's generators and
    not star-closed (`parse` closes every algebra it reads)."""
    bare = Presentation(name, builtin(name).presentation(name).generators)
    rules = []
    for lhs, rhs in re.findall(r"^\s*rel ([^=]+)=([^;]+);", _load_source(name),
                               re.M):
        (word,) = parse_expression(lhs, bare).words()
        rules.append(RewriteRule(word, parse_expression(rhs, bare)))
    return bare.with_rules(rules)


def test_star_closure_of_lorentz_derives_thirteen_rules():
    pres = declared("lorentz")
    assert len(pres.rules) == 17
    closed = star_closure(pres)
    assert len(closed.rules) == 30 and closed == lorentz()
    # starred determinant rule, from starring a d = 1 + b c
    assert nf_rule(closed, "a' d'") == parse_expression("1 + b' c'", closed)
    # star of the mixed rule b' a = q^4 a b'
    assert nf_rule(closed, "a' b") == parse_expression("q^4 b a'", closed)


def nf_rule(pres, text):
    return pres.normalize(parse_expression(text, pres))


def test_star_closure_of_minkowski_is_trivial():
    pres = declared("minkowski")
    closed = star_closure(pres)
    assert len(closed.rules) == len(pres.rules) == 6


def test_star_closure_respects_star_of_every_rule():
    p = lorentz()
    for rule in p.rules:
        assert p.normalize(p.star(rule.as_polynomial())).is_zero()


def test_every_builtin_right_hand_side_is_its_own_normal_form():
    from qmink.dsl import BUILTIN_NAMES
    for name in BUILTIN_NAMES:
        for pres in builtin(name).presentations.values():
            for rule in pres.rules:
                assert pres.normalize(rule.rhs) == rule.rhs, (pres.name, rule)


def test_star_closure_builds_no_presentation_per_rule(monkeypatch):
    pres = declared("lorentz")
    built = []
    with_rules = Presentation.with_rules

    def counting(self, rules):
        built.append(len(rules))
        return with_rules(self, rules)

    monkeypatch.setattr(Presentation, "with_rules", counting)
    closed = star_closure(pres)
    # one presentation per closure round (17 rules, then 30), and the result
    assert len(closed.rules) == 30 and built == [17, 30, 30]


# -- orientation -----------------------------------------------------------------


def test_orient_rejects_non_unit_leading_coefficient():
    pres = abstract_presentation("ab", [])
    bad = parse_expression("(1 + q^2) b a - a b", pres)
    with pytest.raises(UnorientableRuleError):
        orient(bad, pres)


# -- tensor products ---------------------------------------------------------------


def test_tensor_square_has_sixteen_generators():
    p = lorentz()
    t = tensor(p, p)
    assert len(t.generators) == 16
    assert t.nlegs == 2


def test_cross_leg_letters_commute():
    p = lorentz()
    t = tensor(p, p)
    lhs = parse_expression("1@c", t) * parse_expression("a@1", t)
    assert t.normalize(lhs) == parse_expression("a@c", t)


def test_tensor_of_minkowski_and_lorentz_supports_the_coaction():
    t = tensor(minkowski(), lorentz())
    assert len(t.generators) == 12
    poly = parse_expression("x@a' a + w@a' c", t)
    # a' a and a' c are themselves reducible (normality resp. q-commutation)
    assert t.normalize(poly) == parse_expression("x@a a' + q^-4 w@c a'", t)


def test_tensor_is_associative_on_the_nose():
    p = lorentz()
    twin = Presentation(p.name, p.generators, p.rules)  # so built apart
    assert tensor(tensor(p, p), p) == tensor(twin, tensor(twin, twin))


def test_a_tensor_product_is_built_once():
    p, m = lorentz(), minkowski()
    assert tensor(tensor(m, p), p) is tensor(m, tensor(p, p))
    assert tensor(m, p).factors == (m, p)
    twin = Presentation(p.name, p.generators, p.rules)
    assert tensor(twin, twin) is not tensor(p, p)


def test_tensor_preserves_confluence():
    t = tensor(minkowski(), lorentz())
    assert check_termination(t).ok
    assert check_local_confluence(t) == []


# -- star on bare polynomials -----------------------------------------------------


def test_star_reverses_and_stars_letters():
    p = lorentz()
    ab = parse_expression("a b", p)
    assert p.star(ab) == parse_expression("b' a'", p)


def test_star_fixes_selfadjoint_coordinates():
    m = minkowski()
    x = parse_expression("x", m)
    assert m.star(x) == x


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_star_is_involutive_on_polynomials(seed):
    p = lorentz()
    poly = random_poly(p, random.Random(seed))
    assert p.star(p.star(poly)) == poly


def test_triple_tensors_stay_confluent():
    # the codomains of the coassociativity / coaction squares
    lor, mink = lorentz(), minkowski()
    for t in (tensor(tensor(lor, lor), lor), tensor(tensor(mink, lor), lor)):
        assert check_termination(t).ok
        assert check_local_confluence(t) == []


def test_tensor_rules_are_star_stable():
    t = tensor(minkowski(), lorentz())
    for rule in t.rules:
        assert t.normalize(t.star(rule.as_polynomial())).is_zero()
