"""Noncommutative *-polynomial arithmetic and normal-ordering rewriting.

A presented *-algebra is given by an ordered list of generators and a set
of oriented rewrite rules (lhs word -> polynomial).  Words are normal
ordered by exhaustive rewriting; with a terminating, locally confluent rule
set the normal form is unique, which is what makes equality of polynomials
decidable and the morphism checks in `coact` meaningful.

Term order.  Words are compared by the tuple

    (heavy degree, inversion count, length, lexicographic letters)

where the heavy degree counts occurrences of generators flagged ``heavy``
(for the builtin quantum Lorentz algebra: a, d and their stars, so that the
determinant rules a d -> 1 + b c strictly decrease it) and inversions are
counted against the declared generator order.  Every builtin rule strictly
decreases this order, which gives termination; local confluence is checked
explicitly via critical pairs.

Strategies.  The deterministic normalizer rewrites the leftmost redex with
the first declared rule matching there, found through an index from
left-hand side to rule; after a rewrite the scan resumes where a new redex
can first start.  Words waiting to be rewritten merge, so paths that meet
are rewritten once from there on, and one rewrite is one step of the
budget.  In a tensor product (y x -> x y with coefficient 1 for every
letter y on a higher leg than x, every other rule within one leg) each
input word is first stable-sorted by leg, which is what those cross-leg
rules produce; the sort is no step of the budget.  The random-redex
strategy (``rng=``) scans without the index, sorts nothing and merges
nothing: it is the independent oracle the deterministic one is checked
against.

Normalization is pure; structures are immutable, but for the per-process
tensor memo that `tensor` fills: `Presentation.factors` and `_products`.
"""

import heapq
import itertools
from collections import namedtuple

from .scalars import ONE, Scalar, join_terms

Word = tuple  # tuple of generator indices

DEFAULT_STEP_LIMIT = 10**6


class StepLimitExceeded(RuntimeError):
    """Normalization exceeded its reduction budget (non-terminating rules?)."""


class UnorientableRuleError(ValueError):
    """A derived relation cannot be oriented as an order-decreasing rule."""


class Generator(namedtuple("Generator", "name star_partner starred leg weight heavy",
                           defaults=(False, 0, None, False))):
    """One generator of a presented *-algebra.

    star_partner is an index (self for self-adjoint generators); leg tags
    the tensor factor; weight is optional metadata recording the scaling
    exponents (u1, v1, u2, v2, ...) of the generator under the deforming
    one-parameter conjugations, one (u, v) pair per complex parameter with
    the convention  lambda_z g lambda_z^* = e^{u z - v zbar} g,  so the
    star partner carries the pairwise (-v, -u) vector.
    """

    __slots__ = ()

    def display(self) -> str:
        return self.name + ("'" if self.starred else "")


class NCPolynomial:
    """Finite scalar combination of words; immutable and canonical."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon = {tuple(w): c for w, c in (terms or {}).items() if not c.is_zero()}
        object.__setattr__(self, "_terms", canon)

    @staticmethod
    def zero() -> "NCPolynomial":
        return NCPolynomial()

    @staticmethod
    def unit(scalar: Scalar = ONE) -> "NCPolynomial":
        return NCPolynomial({(): scalar})

    @staticmethod
    def word(word, scalar: Scalar = ONE) -> "NCPolynomial":
        return NCPolynomial({tuple(word): scalar})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def words(self):
        return self._terms.keys()

    def coefficient(self, word) -> Scalar:
        return self._terms.get(tuple(word), Scalar.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return isinstance(other, NCPolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        terms = dict(self._terms)
        for w, c in other._terms.items():
            acc = terms.get(w)
            terms[w] = c if acc is None else acc + c
        return NCPolynomial(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCPolynomial({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        """Free product: concatenate words, multiply scalars. No rewriting."""
        terms = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                p = c1 * c2
                acc = terms.get(w)
                terms[w] = p if acc is None else acc + p
        return NCPolynomial(terms)

    def scale(self, scalar: Scalar) -> "NCPolynomial":
        return NCPolynomial({w: c * scalar for w, c in self._terms.items()})

    def __repr__(self):
        if not self._terms:
            return "NCPolynomial(0)"
        bits = [f"({c})*{w}" for w, c in sorted(self._terms.items())]
        return "NCPolynomial(" + " + ".join(bits) + ")"


class RewriteRule(namedtuple("RewriteRule", "lhs rhs")):
    """Oriented rule lhs -> rhs (a Word and an NCPolynomial); scalar-exact."""

    __slots__ = ()

    def as_polynomial(self) -> NCPolynomial:
        return NCPolynomial.word(self.lhs) - self.rhs


class Presentation:
    """Generators + oriented rules; immutable but for the tensor memo.

    Construction is deliberately lenient (bad rule sets are representable)
    so that check_termination / check_local_confluence have something to
    report on.  Every algebra the .qalg parser returns (a builtin or a file
    read by path) is star-closed and passed check_termination before and
    after the closure; local confluence is checked only by `qmink check
    presentation` and the tests.
    """

    def __init__(self, name: str, generators, rules=()):
        generators = tuple(generators)
        for i, g in enumerate(generators):
            j = g.star_partner
            if not 0 <= j < len(generators):
                raise ValueError(f"generator {g.name}: star partner {j} out of range")
            if generators[j].star_partner != i:
                raise ValueError(f"star pairing is not an involution at {g.name}")
        self.name = name
        self.generators = generators
        self.rules = tuple(rules)
        self.nlegs = 1 + max((g.leg for g in generators), default=0)
        by_first = {}
        by_lhs = {}
        for k, rule in enumerate(self.rules):
            if not rule.lhs:
                raise ValueError("rewrite rule with empty left-hand side")
            by_first.setdefault(rule.lhs[0], []).append(rule)
            by_lhs.setdefault(rule.lhs, (k, rule))
        self._by_first = by_first
        # rule index of the deterministic strategy: lhs -> first declared rule
        self._by_lhs = by_lhs
        self._lhs_lengths = tuple(sorted({len(lhs) for lhs in by_lhs}))
        # a rewrite at i leaves no redex starting before i - _reach
        self._reach = max(self._lhs_lengths, default=1) - 1
        self._heavy = frozenset(i for i, g in enumerate(generators) if g.heavy)
        self._legs = self._tensor_legs() if self.nlegs > 1 else None
        self.factors = (self,)  # `tensor` sets a product's to its factors'
        self._products = {}  # ids of the other factors -> product (see tensor)

    def _tensor_legs(self):
        """Each generator's leg if the rules make this a tensor product, else None.

        That is: y x -> x y with coefficient ONE for every letter y on a
        higher leg than x, no other left-hand side across legs, and every
        other rule's words in its left-hand side's leg.
        """
        legs = tuple(g.leg for g in self.generators)
        swaps = set()
        for rule in self.rules:
            lhs_legs = {legs[i] for i in rule.lhs}
            if len(lhs_legs) == 1:
                if any(legs[i] not in lhs_legs for w in rule.rhs.words() for i in w):
                    return None
            elif (len(rule.lhs) == 2 and legs[rule.lhs[0]] > legs[rule.lhs[1]]
                  and rule.rhs._terms == {rule.lhs[::-1]: ONE}):
                swaps.add(rule.lhs)
            else:
                return None
        pairs = sum(1 for y in legs for x in legs if y > x)
        return legs if len(swaps) == pairs else None

    # -- bookkeeping ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.name == other.name
                and self.generators == other.generators
                and self.rules == other.rules)

    def __repr__(self):
        return (f"Presentation({self.name!r}, {len(self.generators)} generators, "
                f"{len(self.rules)} rules)")

    def index_of(self, name: str, leg: int = 0) -> int:
        for i, g in enumerate(self.generators):
            if g.leg == leg and g.display() == name:
                return i
        raise KeyError(f"no generator {name!r} on leg {leg} of {self.name}")

    def gen(self, name: str, leg: int = 0) -> NCPolynomial:
        return NCPolynomial.word((self.index_of(name, leg),))

    def with_rules(self, rules) -> "Presentation":
        return Presentation(self.name, self.generators, rules)

    # -- term order ----------------------------------------------------------

    def heavy_degree(self, word: Word) -> int:
        return sum(1 for i in word if i in self._heavy)

    @staticmethod
    def inversions(word: Word) -> int:
        return sum(1 for a, b in itertools.combinations(word, 2) if a > b)

    def order_key(self, word: Word):
        return (self.heavy_degree(word), self.inversions(word), len(word), word)

    # -- star ----------------------------------------------------------------

    def star_word(self, word: Word) -> Word:
        return tuple(self.generators[i].star_partner for i in reversed(word))

    def star(self, poly: NCPolynomial) -> NCPolynomial:
        """Antimultiplicative involution: reverse words, star letters, conjugate scalars."""
        return NCPolynomial({self.star_word(w): c.star() for w, c in poly.terms.items()})

    # -- rewriting -------------------------------------------------------------

    def _matches(self, word: Word):
        n = len(word)
        for i in range(n):
            for rule in self._by_first.get(word[i], ()):
                L = len(rule.lhs)
                if i + L <= n and word[i:i + L] == rule.lhs:
                    yield i, rule

    def find_redex(self, word: Word, start: int = 0):
        """Leftmost redex from ``start`` on (none may start before it), with
        the first matching rule in declaration order."""
        by_lhs = self._by_lhs
        lengths = self._lhs_lengths
        n = len(word)
        if len(lengths) == 1:
            (L,) = lengths
            for i in range(start, n - L + 1):
                hit = by_lhs.get(word[i:i + L])
                if hit is not None:
                    return i, hit[1]
            return None
        for i in range(start, n):
            best = None
            for L in lengths:
                if i + L > n:
                    break
                hit = by_lhs.get(word[i:i + L])
                if hit is not None and (best is None or hit[0] < best[0]):
                    best = hit
            if best is not None:
                return i, best[1]
        return None

    def normalize(self, poly: NCPolynomial, *, step_limit: int = DEFAULT_STEP_LIMIT,
                  rng=None) -> NCPolynomial:
        """Exhaustive rewriting to normal form.

        The default strategy is deterministic: leftmost redex, and among
        the rules matching there the first declared, found through the rule
        index; after a rewrite at i the scan resumes at i - (longest lhs - 1).
        In a tensor product each input word is stable-sorted by leg first,
        in place of the cross-leg commutations, which are then no steps.
        A one-term rewrite goes on at once; the reducible words of
        the input and of many-term rewrites wait, equal words merged, and
        are taken greatest first in (heavy degree, length, letters).  Every
        builtin rule lowers that order in any context, so no word waits
        twice (under other rules one may, with the same result).  A seeded
        ``rng`` picks random redexes instead, without the rule index, to
        cross-check confluence.  Each rewrite is one step; past
        ``step_limit`` StepLimitExceeded is raised, never a truncated
        answer, so a rule cycle (a -> b, b -> a) spends the whole budget.
        """
        if rng is not None:
            return self._normalize_random(poly, step_limit, rng)
        find_redex, heavy_degree = self.find_redex, self.heavy_degree
        reach, legs = self._reach, self._legs
        terms = {}  # word -> summed coefficient: waiting or irreducible
        # greatest (heavy degree, length, letters) on top; not order_key, whose
        # inversion count costs O(n^2) per word and need not drop in context
        heap = []

        def push(word, coeff, start=0):
            if word in terms:
                terms[word] += coeff
                return
            terms[word] = coeff
            hit = find_redex(word, start)
            if hit is not None:
                heapq.heappush(heap, (-heavy_degree(word), -len(word),
                                      tuple([-i for i in word]), word, hit))

        for word, coeff in poly._terms.items():
            push(word if legs is None else tuple(sorted(word, key=legs.__getitem__)),
                 coeff)
        steps = 0
        while heap:
            word, (i, rule) = heapq.heappop(heap)[-2:]
            coeff = terms.pop(word)
            while not coeff.is_zero():
                steps += 1
                if steps > step_limit:
                    raise StepLimitExceeded(
                        f"normalization in {self.name} exceeded {step_limit} steps")
                prefix, suffix = word[:i], word[i + len(rule.lhs):]
                start = max(0, i - reach)
                if len(rule.rhs._terms) != 1:
                    for rw, rc in rule.rhs._terms.items():
                        push(prefix + rw + suffix, rc * coeff, start)
                    break
                ((rw, rc),) = rule.rhs._terms.items()
                word, coeff = prefix + rw + suffix, rc * coeff
                hit = None if word in terms else find_redex(word, start)
                if hit is None:
                    terms[word] = terms[word] + coeff if word in terms else coeff
                    break
                i, rule = hit
        # equal coefficients share one object, which keeps results small and
        # lets products with the unit skip work (see Scalar.__mul__)
        shared = {ONE: ONE}
        return NCPolynomial({w: shared.setdefault(c, c) for w, c in terms.items()})

    def _normalize_random(self, poly, step_limit, rng) -> NCPolynomial:
        """Random-redex rewriting: the unindexed oracle for normalize."""
        out = {}
        stack = [(w, c) for w, c in poly.terms.items()]
        steps = 0
        while stack:
            word, coeff = stack.pop()
            if coeff.is_zero():
                continue
            options = list(self._matches(word))
            hit = rng.choice(options) if options else None
            if hit is None:
                acc = out.get(word)
                total = coeff if acc is None else acc + coeff
                if total.is_zero():
                    out.pop(word, None)
                else:
                    out[word] = total
                continue
            steps += 1
            if steps > step_limit:
                raise StepLimitExceeded(
                    f"normalization in {self.name} exceeded {step_limit} steps")
            i, rule = hit
            prefix, suffix = word[:i], word[i + len(rule.lhs):]
            for rw, rc in rule.rhs.terms.items():
                stack.append((prefix + rw + suffix, coeff * rc))
        return NCPolynomial(out)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def orient(poly: NCPolynomial, pres: Presentation) -> RewriteRule:
    """Orient a nonzero polynomial relation into an order-decreasing rule.

    The leading word (maximal in the term order) becomes the lhs; fails if
    its coefficient is not invertible in the Laurent scalar ring.
    """
    if poly.is_zero():
        raise ValueError("cannot orient the zero relation")
    terms = poly.terms
    lead = max(terms, key=pres.order_key)
    coeff = terms[lead]
    if not coeff.is_unit():
        raise UnorientableRuleError(
            f"cannot orient {render_poly(poly, pres)} = 0: its leading "
            f"coefficient {coeff} is not invertible")
    inv = coeff.inverse()
    rest = NCPolynomial({w: c for w, c in terms.items() if w != lead})
    return RewriteRule(lead, (-rest).scale(inv))


class TerminationReport(namedtuple("TerminationReport", "ok violations")):
    """ok, and the (rule, offending rhs word) pairs."""

    __slots__ = ()


def check_termination(pres: Presentation) -> TerminationReport:
    """Every rule must strictly decrease the term order, word by word."""
    bad = tuple((rule, w) for rule in pres.rules for w in rule.rhs.words()
                if not pres.order_key(w) < pres.order_key(rule.lhs))
    return TerminationReport(not bad, bad)


# an overlap word of two rules and the normal forms of its two reductions
CriticalPair = namedtuple("CriticalPair", "rule1 rule2 word nf1 nf2")


def _reduce_once_at(word, rule, pos) -> NCPolynomial:
    return (NCPolynomial.word(word[:pos]) * rule.rhs
            * NCPolynomial.word(word[pos + len(rule.lhs):]))


def critical_superpositions(pres: Presentation):
    """All overlap superpositions (rule1, rule2, word, pos1, pos2)."""
    rules = pres.rules
    for r1 in rules:
        for r2 in rules:
            l1, l2 = r1.lhs, r2.lhs
            # proper suffix/prefix overlaps
            for o in range(1, min(len(l1), len(l2))):
                if l1[-o:] == l2[:o]:
                    yield r1, r2, l1 + l2[o:], 0, len(l1) - o
    # inclusions; two rules with one left-hand side are paired once
    for a, r1 in enumerate(rules):
        for b, r2 in enumerate(rules):
            l1, l2 = r1.lhs, r2.lhs
            if len(l2) > len(l1) or (l1 == l2 and a >= b):
                continue
            for pos in range(len(l1) - len(l2) + 1):
                if l1[pos:pos + len(l2)] == l2:
                    yield r1, r2, l1, 0, pos


def check_local_confluence(pres: Presentation):
    """Complete every overlap both ways; return the unresolved critical pairs."""
    unresolved = []
    for r1, r2, word, p1, p2 in critical_superpositions(pres):
        t1 = pres.normalize(_reduce_once_at(word, r1, p1))
        t2 = pres.normalize(_reduce_once_at(word, r2, p2))
        if t1 != t2:
            unresolved.append(CriticalPair(r1, r2, word, t1, t2))
    return unresolved


def star_closure(pres: Presentation) -> Presentation:
    """Close the rule set under the *-involution.

    For every rule, the star image of (lhs - rhs) must normalize to zero;
    residuals are oriented and appended until stable.  Each right-hand side
    is then normalized once in the closed presentation the last round
    built.  The result has the same left-hand sides, so the same
    irreducible words: in it every rule's star image normalizes to zero and
    every right-hand side is its own normal form.
    """
    rules = list(pres.rules)
    while True:
        work = pres.with_rules(rules)
        new_rules = []
        for rule in rules:
            residual = work.normalize(work.star(rule.as_polynomial()))
            if not residual.is_zero():
                derived = orient(residual, work)
                if derived not in rules and derived not in new_rules:
                    new_rules.append(derived)
        if not new_rules:
            break
        rules.extend(new_rules)
    return pres.with_rules([RewriteRule(r.lhs, work.normalize(r.rhs)) for r in rules])


def tensor(p1: Presentation, p2: Presentation) -> Presentation:
    """Minimal tensor product: legs are re-tagged, cross-leg letters commute.

    Generators of p1 come first (legs unchanged), then p2's with legs
    shifted and every rule moved along by `embed`; the cross-leg rules sort
    lower legs before higher legs with commutation factor 1, so the
    deformation lives inside each leg.

    Lemma: a presentation that `_tensor_legs` recognizes is terminating and
    confluent when each leg is.  A leg rule steps one leg's projection of a
    word and a swap removes a cross-leg inversion, so rewriting stops; two
    swaps overlapping in z y x both reach x y z, and a swap overlapping a
    leg rule resolves by swaps, as the rule's right side lies in its leg, so
    Newman's lemma applies.  `test_triple_tensors_stay_confluent` is its oracle.

    Each product is built once per first factor: it is kept there under
    its other factors, so (A @ B) @ C and A @ (B @ C) are one object.
    """
    factors = p1.factors + p2.factors
    key = tuple(map(id, factors[1:]))  # the product keeps them alive
    product = factors[0]._products.get(key)
    if product is not None:
        return product
    off = len(p1.generators)
    gens = list(p1.generators)
    for g in p2.generators:
        gens.append(g._replace(star_partner=g.star_partner + off,
                               leg=g.leg + p1.nlegs))
    rules = list(p1.rules)
    for rule in p2.rules:
        rules.append(RewriteRule(tuple(i + off for i in rule.lhs),
                                 embed(rule.rhs, off)))
    rules += [RewriteRule((j, i), NCPolynomial.word((i, j)))
              for j in range(off, len(gens)) for i in range(off)]
    # canonical rule order makes tensoring associative on the nose
    rules.sort(key=lambda r: r.lhs)
    product = Presentation(f"{p1.name}@{p2.name}", gens, rules)
    product.factors = factors
    factors[0]._products[key] = product
    return product


def embed(poly: NCPolynomial, index_offset: int) -> NCPolynomial:
    """Shift every generator index: the block of a factor placed after
    `index_offset` generators in a tensor product."""
    return NCPolynomial({tuple(i + index_offset for i in w): c
                         for w, c in poly._terms.items()})


# ---------------------------------------------------------------------------
# rendering (the textual form used by the presentation language and reports)
# ---------------------------------------------------------------------------


def render_word(word: Word, pres: Presentation) -> str:
    if not word:
        return "1"
    if pres.nlegs == 1:
        return " ".join(pres.generators[i].display() for i in word)
    legs = [pres.generators[i].leg for i in word]
    if legs != sorted(legs):
        # not leg-sorted (non-normal word): unambiguous fallback
        return " ".join(f"{pres.generators[i].display()}[{pres.generators[i].leg}]"
                        for i in word)
    groups = [[] for _ in range(pres.nlegs)]
    for i in word:
        groups[pres.generators[i].leg].append(pres.generators[i].display())
    return "@".join(" ".join(g) if g else "1" for g in groups)


def _render_term(word, coeff, pres) -> str:
    scalar = str(coeff)
    if not word:
        return scalar if len(coeff.terms) == 1 else f"({scalar})"
    if coeff.is_one():
        return render_word(word, pres)
    if (-coeff).is_one():
        return "-" + render_word(word, pres)
    if len(coeff.terms) > 1:
        scalar = f"({scalar})"
    return f"{scalar} {render_word(word, pres)}"


def render_poly(poly: NCPolynomial, pres: Presentation) -> str:
    if poly.is_zero():
        return "0"
    words = sorted(poly.words(), key=pres.order_key)
    return join_terms([_render_term(w, poly.coefficient(w), pres) for w in words])
