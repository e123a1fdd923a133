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
the first declared rule matching there.  It finds redexes through an index
from left-hand side to rule, and memoizes the normal form of every word it
meets for the duration of one `normalize` call; since the strategy is a
function of the word, the memo changes no result, confluent or not.  The
random-redex strategy (``rng=``) scans with neither index nor memo: it is
the independent oracle the deterministic one is checked against.

All structures are immutable after construction; normalization is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .scalars import Scalar, ONE

Word = tuple  # tuple of generator indices

DEFAULT_STEP_LIMIT = 10**6


class StepLimitExceeded(RuntimeError):
    """Normalization exceeded its reduction budget (non-terminating rules?)."""


class UnorientableRuleError(ValueError):
    """A derived relation cannot be oriented as an order-decreasing rule."""


@dataclass(frozen=True)
class Generator:
    """One generator of a presented *-algebra.

    star_partner is an index (self for self-adjoint generators); leg tags
    the tensor factor; weight is optional metadata recording the scaling
    exponents (u1, v1, u2, v2, ...) of the generator under the deforming
    one-parameter conjugations, one (u, v) pair per complex parameter with
    the convention  lambda_z g lambda_z^* = e^{u z - v zbar} g,  so the
    star partner carries the pairwise (-v, -u) vector.
    """

    name: str
    star_partner: int
    starred: bool = False
    leg: int = 0
    weight: Optional[tuple] = None
    heavy: bool = False

    def display(self) -> str:
        return self.name + ("'" if self.starred else "")


class NCPolynomial:
    """Finite scalar combination of words; immutable and canonical."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    canon[tuple(w)] = c
        object.__setattr__(self, "_terms", canon)

    @staticmethod
    def zero() -> "NCPolynomial":
        return NCPolynomial()

    @staticmethod
    def unit(scalar: Scalar = ONE) -> "NCPolynomial":
        return NCPolynomial({(): scalar})

    @staticmethod
    def word(word: Iterable[int], scalar: Scalar = ONE) -> "NCPolynomial":
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


@dataclass(frozen=True)
class RewriteRule:
    """Oriented rule lhs -> rhs; scalar-exact."""

    lhs: Word
    rhs: NCPolynomial

    def as_polynomial(self) -> NCPolynomial:
        return NCPolynomial.word(self.lhs) - self.rhs


class Presentation:
    """Generators + oriented rules; immutable once constructed.

    Construction is deliberately lenient (bad rule sets are representable)
    so that check_termination / check_local_confluence have something to
    report on; the builtin loaders assert both checks.
    """

    def __init__(self, name: str, generators: Sequence[Generator], rules=(),
                 star_closed: bool = False):
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
        self.star_closed = bool(star_closed)
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
        self._heavy = frozenset(i for i, g in enumerate(generators) if g.heavy)

    # -- bookkeeping ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.name == other.name
                and self.generators == other.generators
                and self.rules == other.rules
                and self.star_closed == other.star_closed)

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

    def with_rules(self, rules, star_closed=None) -> "Presentation":
        closed = self.star_closed if star_closed is None else star_closed
        return Presentation(self.name, self.generators, rules, closed)

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

    def find_redex(self, word: Word):
        """Leftmost redex, first matching rule in declaration order."""
        by_lhs = self._by_lhs
        lengths = self._lhs_lengths
        n = len(word)
        if len(lengths) == 1:
            (L,) = lengths
            for i in range(n - L + 1):
                hit = by_lhs.get(word[i:i + L])
                if hit is not None:
                    return i, hit[1]
            return None
        for i in range(n):
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
        the rules matching there the first declared.  It is a function of
        the word alone, so the normal form of every word met is memoized;
        the memo lives for this one call and is never shared, and the result
        equals plain rewriting even for non-confluent rule sets.  Passing a
        seeded ``rng`` picks random redexes instead, with neither memo nor
        rule index, which is used to cross-check confluence.  Each word
        expanded counts as one step; exceeding ``step_limit``, or a word
        rewriting back to itself, raises StepLimitExceeded rather than
        returning a truncated answer.
        """
        if rng is not None:
            return self._normalize_random(poly, step_limit, rng)
        memo = {}
        self._fill_memo(poly.words(), memo, step_limit)
        out = {}
        for word, coeff in poly.terms.items():
            factor, nf = memo[word]
            factor = factor * coeff
            for w, c in nf.items():
                c = c * factor
                acc = out.get(w)
                out[w] = c if acc is None else acc + c
        # equal coefficients share one object, which keeps results small and
        # lets products with the unit skip work (see Scalar.__mul__)
        shared = {ONE: ONE}
        return NCPolynomial({w: shared.setdefault(c, c) for w, c in out.items()})

    def _fill_memo(self, words, memo: dict, step_limit: int) -> None:
        """Put the normal form of each word into memo, as (factor, {word: Scalar}).

        The normal form is factor times the dict, so a rewrite to a single
        word only scales the factor and shares its child's dict.  Iterative
        depth-first expansion: a word is expanded (one step) when first met
        and marked open (None in memo); its normal form replaces the mark
        once the normal forms of all its one-step rewrites are in.  The open
        words are the chain of ancestors of the word in hand, so a rewrite
        that is still open is a rule cycle: it raises at once, as does
        exceeding the step limit.
        """
        steps = 0
        stack = [(w, None) for w in words]
        while stack:
            w, parts = stack.pop()
            if parts is None:
                if w in memo:
                    continue
                hit = self.find_redex(w)
                if hit is None:
                    memo[w] = (ONE, {w: ONE})
                    continue
                steps += 1
                if steps > step_limit:
                    raise StepLimitExceeded(
                        f"normalization in {self.name} exceeded {step_limit} steps")
                i, rule = hit
                prefix, suffix = w[:i], w[i + len(rule.lhs):]
                parts = [(prefix + rw + suffix, rc) for rw, rc in rule.rhs._terms.items()]
                memo[w] = None
                stack.append((w, parts))
                for child, _ in parts:
                    if child not in memo:
                        stack.append((child, None))
                continue
            nfs = [memo[child] for child, _ in parts]
            if None in nfs:
                raise StepLimitExceeded(
                    f"normalization in {self.name} does not terminate: "
                    f"a word rewrites back to itself")
            if len(parts) == 1:
                factor, nf = nfs[0]
                memo[w] = (parts[0][1] * factor, nf)
                continue
            nf = {}
            for (_, rc), (factor, child_nf) in zip(parts, nfs):
                factor = rc * factor
                for cw, cc in child_nf.items():
                    cc = cc * factor
                    acc = nf.get(cw)
                    if acc is None:
                        nf[cw] = cc
                    else:
                        cc = acc + cc
                        if cc.is_zero():
                            del nf[cw]
                        else:
                            nf[cw] = cc
            memo[w] = (ONE, nf)

    def _normalize_random(self, poly, step_limit, rng) -> NCPolynomial:
        """Random-redex rewriting: the unmemoized oracle for normalize."""
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
            f"leading coefficient {coeff} of {poly!r} is not invertible")
    inv = coeff.inverse()
    rest = NCPolynomial({w: c for w, c in terms.items() if w != lead})
    return RewriteRule(lead, (-rest).scale(inv))


@dataclass(frozen=True)
class TerminationReport:
    ok: bool
    violations: tuple  # (rule, offending rhs word)

    def __bool__(self):
        return self.ok


def check_termination(pres: Presentation) -> TerminationReport:
    """Every rule must strictly decrease the term order, word by word."""
    bad = []
    for rule in pres.rules:
        lk = pres.order_key(rule.lhs)
        for w in rule.rhs.words():
            if not pres.order_key(w) < lk:
                bad.append((rule, w))
    return TerminationReport(not bad, tuple(bad))


@dataclass(frozen=True)
class CriticalPair:
    rule1: RewriteRule
    rule2: RewriteRule
    word: Word
    nf1: NCPolynomial
    nf2: NCPolynomial

    @property
    def residual(self) -> NCPolynomial:
        return self.nf1 - self.nf2


def _reduce_once_at(pres, word, rule, pos) -> NCPolynomial:
    prefix, suffix = word[:pos], word[pos + len(rule.lhs):]
    terms = {}
    for rw, rc in rule.rhs.terms.items():
        w = prefix + rw + suffix
        acc = terms.get(w)
        terms[w] = rc if acc is None else acc + rc
    return NCPolynomial(terms)


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
    seen = set()
    for a, r1 in enumerate(rules):
        for b, r2 in enumerate(rules):
            if a == b:
                continue
            l1, l2 = r1.lhs, r2.lhs
            if len(l2) > len(l1):
                continue
            for pos in range(len(l1) - len(l2) + 1):
                if l1[pos:pos + len(l2)] == l2:
                    key = (min(a, b), max(a, b), pos) if len(l1) == len(l2) else (a, b, pos)
                    if len(l1) == len(l2) and key in seen:
                        continue
                    seen.add(key)
                    yield r1, r2, l1, 0, pos


def check_local_confluence(pres: Presentation, *, step_limit=DEFAULT_STEP_LIMIT):
    """Complete every overlap both ways; return the unresolved critical pairs."""
    unresolved = []
    for r1, r2, word, p1, p2 in critical_superpositions(pres):
        t1 = pres.normalize(_reduce_once_at(pres, word, r1, p1), step_limit=step_limit)
        t2 = pres.normalize(_reduce_once_at(pres, word, r2, p2), step_limit=step_limit)
        if t1 != t2:
            unresolved.append(CriticalPair(r1, r2, word, t1, t2))
    return unresolved


def star_closure(pres: Presentation) -> Presentation:
    """Close the rule set under the *-involution.

    For every rule, the star image of (lhs - rhs) must normalize to zero;
    residuals are oriented and appended until stable.  The result carries
    the star_closed flag and has all right-hand sides in normal form.
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
    # final pass: normal-form right-hand sides
    work = pres.with_rules(rules)
    tidy = []
    for rule in rules:
        others = pres.with_rules([r for r in rules if r is not rule])
        tidy.append(RewriteRule(rule.lhs, others.normalize(rule.rhs)))
    return pres.with_rules(tidy, star_closed=True)


@dataclass(frozen=True)
class CompletionResult:
    presentation: Presentation
    added: tuple  # RewriteRule
    locally_confluent: bool


def complete(pres: Presentation, max_new_rules: int) -> CompletionResult:
    """Orient unresolved critical pairs as new rules until locally confluent.

    Presentations flagged star-closed are re-closed under star on each
    round, so a dropped star-derived rule is restored as such rather than
    through longer superposition rules.  Stops (reporting non-confluence)
    once max_new_rules have been added.
    """
    current = pres
    added = []

    def budget_left():
        return len(added) < max_new_rules

    while True:
        if current.star_closed:
            closed = star_closure(current)
            fresh = closed.rules[len(current.rules):]
            if fresh and len(added) + len(fresh) > max_new_rules:
                return CompletionResult(current, tuple(added), False)
            if fresh:
                added.extend(fresh)
                current = closed
                continue
            current = closed
        pairs = check_local_confluence(current)
        if not pairs:
            return CompletionResult(current, tuple(added), True)
        if not budget_left():
            return CompletionResult(current, tuple(added), False)
        rule = orient(pairs[0].residual, current)
        added.append(rule)
        current = current.with_rules(current.rules + (rule,))


def tensor(p1: Presentation, p2: Presentation) -> Presentation:
    """Minimal tensor product: legs are re-tagged, cross-leg letters commute.

    Generators of p1 come first (legs unchanged), then p2's with legs
    shifted; the cross-leg rules sort lower legs before higher legs with
    commutation factor 1, so the deformation lives inside each leg.
    """
    off_leg = p1.nlegs
    off_idx = len(p1.generators)
    gens = list(p1.generators)
    for g in p2.generators:
        gens.append(Generator(g.name, g.star_partner + off_idx, g.starred,
                              g.leg + off_leg, g.weight, g.heavy))
    rules = list(p1.rules)
    for rule in p2.rules:
        lhs = tuple(i + off_idx for i in rule.lhs)
        rhs = NCPolynomial({tuple(i + off_idx for i in w): c
                            for w, c in rule.rhs.terms.items()})
        rules.append(RewriteRule(lhs, rhs))
    for j in range(len(p2.generators)):
        for i in range(len(p1.generators)):
            hi = j + off_idx
            rules.append(RewriteRule((hi, i), NCPolynomial.word((i, hi))))
    # canonical rule order makes tensoring associative on the nose
    rules.sort(key=lambda r: r.lhs)
    return Presentation(f"{p1.name}@{p2.name}", gens, rules,
                        star_closed=p1.star_closed and p2.star_closed)


def tensor_many(presentations: Sequence[Presentation]) -> Presentation:
    out = presentations[0]
    for p in presentations[1:]:
        out = tensor(out, p)
    return out


def embed(poly: NCPolynomial, index_offset: int) -> NCPolynomial:
    """Shift every generator index (used to move polynomials between legs)."""
    return NCPolynomial({tuple(i + index_offset for i in w): c
                         for w, c in poly.terms.items()})


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
    parts = [_render_term(w, poly.coefficient(w), pres) for w in words]
    out = parts[0]
    for p in parts[1:]:
        out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
    return out
