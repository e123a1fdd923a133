"""Generator-defined *-homomorphisms and the coaction-style identity checks.

A morphism between presented *-algebras is fixed by the images of the
unstarred generators; starred images are forced by star-equivariance.
Equality of morphisms is decided on generators through normal forms, which
is legitimate because the builtin codomains terminate (the loader checks it)
and are locally confluent (`qmink check presentation` and the tests check it).

The checks below are all exact: each residual is lhs - rhs of two normal
forms in one codomain, a polynomial over the Laurent scalar ring, and a
check passes iff it is zero.  It is not normalized again: each of its words
is a word of one side, so it is already irreducible.  A leg extension
m (x) id or id (x) m is the one tensor formula m1 (x) m2, with the identity
of the passive factor as one of them.
"""

from collections import namedtuple

from .ncalg import NCPolynomial, Presentation, embed, render_poly, tensor
from .scalars import Scalar


class Morphism:
    """Unital *-homomorphism candidate, defined on generators.  Whether it
    is one is a verdict, not a property: `validate()` computes it, and
    the hopf and coaction suites report it."""

    def __init__(self, name: str, domain: Presentation, codomain: Presentation,
                 images: dict):
        missing = set(range(len(domain.generators))) - set(images)
        if missing:
            names = ", ".join(domain.generators[i].display() for i in sorted(missing))
            raise ValueError(f"morphism {name}: no image for generator(s) {names}")
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.images = dict(images)

    @classmethod
    def from_unstarred(cls, name, domain, codomain, unstarred_images):
        """Build the full image table, in normal form, from images of the
        unstarred generators; an image that normalizes further is a fault of
        `normalize` (no text can cause it), raised as a RuntimeError."""
        images = {}
        for i, g in enumerate(domain.generators):
            if g.starred:
                continue
            if i not in unstarred_images:
                raise ValueError(
                    f"morphism {name}: missing image for generator {g.display()}")
            images[i] = codomain.normalize(unstarred_images[i])
        for i, g in enumerate(domain.generators):
            if g.starred:
                images[i] = codomain.normalize(codomain.star(images[g.star_partner]))
        if any(codomain.normalize(img) != img for img in images.values()):
            raise RuntimeError(f"morphism {name}: an image is not in normal form")
        return cls(name, domain, codomain, images)

    @classmethod
    def identity(cls, pres: Presentation) -> "Morphism":
        images = {i: NCPolynomial.word((i,)) for i in range(len(pres.generators))}
        return cls("id", pres, pres, images)

    def validate(self) -> tuple:
        """The star-equivariance and the relations reports, computed afresh
        on each call; nothing is stored on the morphism."""
        return check_star_equivariance(self), check_relations_preserved(self)

    def apply(self, poly: NCPolynomial) -> NCPolynomial:
        """Multiplicative, linear extension of the generator images, normalized.

        The product is normalized after each factor rather than built in
        full first.  For a confluent codomain (the builtins are certified
        so) this is the normal form of the whole free product.
        """
        n = len(self.domain.generators)
        out = NCPolynomial.zero()
        for word, coeff in poly.terms.items():
            if any(i >= n for i in word):
                raise ValueError(f"word {word} does not live in {self.domain.name}")
            prod = NCPolynomial.unit(coeff)
            for i in word:
                prod = self.codomain.normalize(prod * self.images[i])
            out = out + prod
        return out

    def __repr__(self):
        return (f"Morphism({self.name}: {self.domain.name} -> "
                f"{self.codomain.name})")


class ResidualEntry(namedtuple("ResidualEntry", "label residual rendered")):
    """One exact check: zero residual means the identity holds on the nose.

    `rendered` is the residual in presentation-language syntax, so a failure
    can be replayed directly with the normalize command.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.residual.is_zero()


def _entry(label, residual, codomain) -> ResidualEntry:
    return ResidualEntry(label, residual, render_poly(residual, codomain))


class MorphismReport(namedtuple("MorphismReport", "name entries")):
    """A named check's ResidualEntry tuple; it passes iff every entry does."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]


def check_relations_preserved(m: Morphism) -> MorphismReport:
    """apply(lhs) - apply(rhs) must be zero for every domain rule."""
    entries = []
    for rule in m.domain.rules:
        residual = m.apply(NCPolynomial.word(rule.lhs)) - m.apply(rule.rhs)
        label = " ".join(m.domain.generators[i].display() for i in rule.lhs)
        entries.append(_entry(label, residual, m.codomain))
    return MorphismReport(f"relations[{m.name}]", tuple(entries))


def leg_extend(m: Morphism, side: str, passive: Presentation) -> Morphism:
    """Extend m by the identity on a passive tensor factor: m1 (x) m2 with
    m on one side and id on the other.

    side="left": m acts on the left block,  m (x) id : domain(m) (x) passive.
    side="right": m acts on the right block, id (x) m : passive (x) domain(m).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    ident = Morphism.identity(passive)
    m1, m2 = (m, ident) if side == "left" else (ident, m)
    images = dict(m1.images)
    for j, img in m2.images.items():  # m2's block follows m1's on both sides
        images[len(m1.domain.generators) + j] = embed(img, len(m1.codomain.generators))
    return Morphism(f"{m1.name}*{m2.name}", tensor(m1.domain, m2.domain),
                    tensor(m1.codomain, m2.codomain), images)


def check_cocommutativity_square(coaction: Morphism,
                                 comult: Morphism) -> MorphismReport:
    """Compare (coaction (x) id) o coaction with (id (x) comult) o coaction
    on every unstarred generator of coaction's domain, in declaration order.

    With coaction = comult this is coassociativity; with the quantum
    Minkowski coaction against the quantum Lorentz comultiplication it is
    the defining compatibility square of a right coaction.  On a starred
    generator it is the star of its partner's, by star-equivariance.
    """
    left = leg_extend(coaction, "left", comult.domain)
    right = leg_extend(comult, "right", coaction.domain)
    if not (left.domain == right.domain == coaction.codomain
            and left.codomain == right.codomain):
        raise RuntimeError("composition square does not type-check")
    entries = []
    for i, g in enumerate(coaction.domain.generators):
        if not g.starred:
            once = coaction.apply(NCPolynomial.word((i,)))
            residual = left.apply(once) - right.apply(once)
            entries.append(_entry(g.display(), residual, left.codomain))
    return MorphismReport(f"square[{coaction.name},{comult.name}]", tuple(entries))


def check_star_equivariance(m: Morphism) -> MorphismReport:
    """apply(star(g)) must equal star(apply(g)) for every generator."""
    entries = []
    for i, g in enumerate(m.domain.generators):
        lhs = m.apply(m.domain.star(NCPolynomial.word((i,))))
        rhs = m.codomain.normalize(m.codomain.star(m.apply(NCPolynomial.word((i,)))))
        entries.append(_entry(g.display(), lhs - rhs, m.codomain))
    return MorphismReport(f"star-equivariance[{m.name}]", tuple(entries))


def _strip_deformation(poly: NCPolynomial, target: Presentation) -> NCPolynomial:
    """Transport a polynomial to the classical presentation, sending q -> 1."""
    return target.normalize(NCPolynomial(
        {w: Scalar.of(c.subs_q_one()) for w, c in poly.terms.items()}))


def _check_parallel(quantum: Presentation, classical: Presentation):
    qg = [(g.display(), g.leg) for g in quantum.generators]
    cg = [(g.display(), g.leg) for g in classical.generators]
    if qg != cg:
        raise RuntimeError(
            f"presentations {quantum.name} and {classical.name} do not share "
            f"a generator list; classical comparison is undefined")


def classical_limit_compare(m: Morphism, reference: Morphism) -> MorphismReport:
    """Substituting q -> 1 into m must reproduce the classical reference.

    Requires reference's presentations to carry the same generator names in
    the same order as m's (the builtin classical algebras are built that
    way), so words transport by index.
    """
    _check_parallel(m.domain, reference.domain)
    _check_parallel(m.codomain, reference.codomain)
    entries = []
    for i, g in enumerate(m.domain.generators):
        if g.starred:
            continue
        mapped = _strip_deformation(m.images[i], reference.codomain)
        expected = reference.codomain.normalize(reference.images[i])
        entries.append(_entry(g.display(), mapped - expected, reference.codomain))
    return MorphismReport(f"classical-limit[{m.name}]", tuple(entries))
