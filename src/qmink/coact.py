"""Generator-defined *-homomorphisms and the coaction-style identity checks.

A morphism between presented *-algebras is fixed by the images of the
unstarred generators; starred images are forced by star-equivariance.
Equality of morphisms is decided on generators through normal forms, which
is legitimate exactly because the builtin codomain presentations are
certified locally confluent first.

The checks below are all exact: residuals are polynomials over the Laurent
scalar ring and a check passes iff every residual normalizes to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ncalg import NCPolynomial, Presentation, embed, render_poly, tensor
from .scalars import Scalar


class Morphism:
    """Unital *-homomorphism candidate, defined on generators."""

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
        self.validated = False

    @classmethod
    def from_unstarred(cls, name, domain, codomain, unstarred_images):
        """Build the full image table from images of the unstarred generators."""
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
        return cls(name, domain, codomain, images)

    @classmethod
    def identity(cls, pres: Presentation) -> "Morphism":
        images = {i: NCPolynomial.word((i,)) for i in range(len(pres.generators))}
        return cls("id", pres, pres, images)

    def validate(self) -> "MorphismReport":
        """Check star-partner coherence and relation preservation.

        The morphism is marked valid only if every residual vanishes.
        """
        entries = []
        for i, g in enumerate(self.domain.generators):
            residual = self.codomain.normalize(
                self.images[g.star_partner] - self.codomain.star(self.images[i]))
            entries.append(_entry(f"star[{g.display()}]", residual, self.codomain))
        stars = MorphismReport(f"star-pairing[{self.name}]", tuple(entries))
        relations = check_relations_preserved(self)
        self.validated = stars.ok and relations.ok
        return MorphismReport(f"validate[{self.name}]",
                              stars.entries + relations.entries)

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


@dataclass(frozen=True)
class ResidualEntry:
    """One exact check: zero residual means the identity holds on the nose.

    `rendered` is the residual in presentation-language syntax, so a failure
    can be replayed directly with the normalize command.
    """

    label: str
    residual: NCPolynomial
    rendered: str

    @property
    def ok(self) -> bool:
        return self.residual.is_zero()


def _entry(label, residual, codomain) -> ResidualEntry:
    return ResidualEntry(label, residual, render_poly(residual, codomain))


@dataclass(frozen=True)
class MorphismReport:
    name: str
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]


def _rule_label(rule, pres):
    lhs = " ".join(pres.generators[i].display() for i in rule.lhs)
    return lhs


def check_relations_preserved(m: Morphism) -> MorphismReport:
    """apply(lhs) - apply(rhs) must normalize to zero for every domain rule."""
    entries = []
    for rule in m.domain.rules:
        lhs_img = m.apply(NCPolynomial.word(rule.lhs))
        rhs_img = m.apply(rule.rhs)
        residual = m.codomain.normalize(lhs_img - rhs_img)
        entries.append(_entry(_rule_label(rule, m.domain), residual, m.codomain))
    return MorphismReport(f"relations[{m.name}]", tuple(entries))


def leg_extend(m: Morphism, side: str, passive: Presentation) -> Morphism:
    """Extend m by the identity on a passive tensor factor.

    side="left": m acts on the left block,  m (x) id : domain(m) (x) passive.
    side="right": m acts on the right block, id (x) m : passive (x) domain(m).
    """
    if side == "left":
        domain = tensor(m.domain, passive)
        codomain = tensor(m.codomain, passive)
        images = dict(m.images)
        cod_block = len(m.codomain.generators)
        for j in range(len(passive.generators)):
            images[len(m.domain.generators) + j] = NCPolynomial.word((cod_block + j,))
        name = f"{m.name}*id"
    elif side == "right":
        domain = tensor(passive, m.domain)
        codomain = tensor(passive, m.codomain)
        images = {i: NCPolynomial.word((i,)) for i in range(len(passive.generators))}
        off = len(passive.generators)
        for j, img in m.images.items():
            images[off + j] = embed(img, off)
        name = f"id*{m.name}"
    else:
        raise ValueError("side must be 'left' or 'right'")
    return Morphism(name, domain, codomain, images)


def check_cocommutativity_square(coaction: Morphism, comult: Morphism,
                                 gens) -> MorphismReport:
    """Compare (coaction (x) id) o coaction with (id (x) comult) o coaction.

    With coaction = comult this is coassociativity; with the quantum
    Minkowski coaction against the quantum Lorentz comultiplication it is
    the defining compatibility square of a right coaction.
    """
    left = leg_extend(coaction, "left", comult.domain)
    right = leg_extend(comult, "right", coaction.domain)
    if left.domain != right.domain or left.domain != coaction.codomain:
        raise ValueError("composition square does not type-check")
    if left.codomain != right.codomain:
        raise ValueError("composition square does not type-check")
    entries = []
    for name in gens:
        g = coaction.domain.gen(name)
        once = coaction.apply(g)
        residual = left.codomain.normalize(left.apply(once) - right.apply(once))
        entries.append(_entry(name, residual, left.codomain))
    return MorphismReport(f"square[{coaction.name},{comult.name}]", tuple(entries))


def check_star_equivariance(m: Morphism) -> MorphismReport:
    """apply(star(g)) must equal star(apply(g)) for every generator."""
    entries = []
    for i, g in enumerate(m.domain.generators):
        lhs = m.apply(m.domain.star(NCPolynomial.word((i,))))
        rhs = m.codomain.normalize(m.codomain.star(m.apply(NCPolynomial.word((i,)))))
        residual = m.codomain.normalize(lhs - rhs)
        entries.append(_entry(g.display(), residual, m.codomain))
    return MorphismReport(f"star-equivariance[{m.name}]", tuple(entries))


def _strip_deformation(poly: NCPolynomial, target: Presentation) -> NCPolynomial:
    """Transport a polynomial to the classical presentation, sending q -> 1."""
    terms = {}
    for w, c in poly.terms.items():
        cl = Scalar.of(c.subs_q_one())
        if cl.is_zero():
            continue
        acc = terms.get(w)
        terms[w] = cl if acc is None else acc + cl
    return target.normalize(NCPolynomial(terms))


def _check_parallel(quantum: Presentation, classical: Presentation):
    qg = [(g.display(), g.leg) for g in quantum.generators]
    cg = [(g.display(), g.leg) for g in classical.generators]
    if qg != cg:
        raise ValueError(
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
        residual = reference.codomain.normalize(mapped - expected)
        entries.append(_entry(g.display(), residual, reference.codomain))
    return MorphismReport(f"classical-limit[{m.name}]", tuple(entries))
