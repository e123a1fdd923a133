"""The .qalg presentation language: parser, serializer, builtin transcriptions.

A source file is a sequence of blocks:

    use minkowski, lorentz;         # builtins brought into scope, see below

    algebra NAME {
      gen a d b c;                  # declaration order = term order
      selfadjoint x y;              # optional
      heavy a d;                    # letters counted by the heavy degree
      weight a = [-1, 0, 1, 0];     # optional scaling metadata, see below
      rel b a = a b;                # oriented rewrite rule lhs = rhs
    }

    morphism NAME : DOM -> COD [@ COD2 ...] {
      a -> a@a + b@c;               # images of the unstarred generators
    }

Stars are spelled with a trailing apostrophe (a'); declared generators are
automatically paired with starred partners unless listed selfadjoint, and
the combined generator order is "unstarred first, then the starred partners
in the same order".  Scalars are Gaussian rationals with powers of the
formal unit q, e.g.  q^-4, 2*q, (1+i)*q^2, 1/2.  A parenthesized group
is any expression that reduces to a scalar: it is read by the polynomial
grammar, and no word may be left once like terms are collected, so (1+i),
((2 q)) and (a - a) are scalars and (a) is an error.  In morphism images the
tensor legs of the codomain are separated by '@', with '1' for an empty
leg.  Comments run from '#' to end of line.

`use` names builtin files only (no file-system imports) and brings their
star-closed algebras and validated morphisms into scope as the very objects
`builtin()` returns; redeclaring an imported name is an error.

Weight metadata: the vector (u1, v1, u2, v2, ...) lists one (u, v) pair per
complex deformation parameter, with lambda_z g lambda_z^* = e^{u z - v zbar} g;
the parser checks that the star partner of a weighted generator carries the
pairwise (-v, -u) vector (self-adjoint generators must be fixed by it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from importlib import resources

from .coact import Morphism
from .ncalg import (Generator, NCPolynomial, Presentation, RewriteRule,
                    check_termination, render_poly, render_word, star_closure,
                    tensor)
from .scalars import Scalar

BUILTIN_NAMES = ("lorentz", "minkowski", "coaction", "classical")

RESERVED = {"q", "i", "gen", "selfadjoint", "heavy", "weight", "rel",
            "algebra", "morphism", "use"}


class DslError(ValueError):
    """Parse or validation failure with source location."""

    def __init__(self, message, line=None, col=None, filename=None):
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename or "<string>"
        where = f"{self.filename}:{line}:{col}: " if line is not None else ""
        super().__init__(where + message)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*'*)
  | (?P<punct>[{}()\[\];=,+\-*@^:])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # 'arrow' | 'number' | 'ident' | punct char | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text, filename):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", line, col, filename)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            if kind == "punct":
                tokens.append(Token(raw, raw, line, col))
            else:
                tokens.append(Token(kind, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@dataclass
class ParsedFile:
    presentations: dict  # every algebra in scope, imported ones included
    morphisms: dict
    uses: list = field(default_factory=list)  # builtins named by `use`

    def presentation(self, name) -> Presentation:
        return self.presentations[name]

    def morphism(self, name) -> Morphism:
        return self.morphisms[name]


class _Parser:
    def __init__(self, text, filename="<string>", star_closed=False):
        self.filename = filename
        self.star_closed = star_closed
        self.tokens = _tokenize(text, filename)
        self.pos = 0

    # -- token primitives ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {what or kind}, found {tok.text!r}", tok)
        return tok

    def error(self, message, tok=None) -> DslError:
        tok = tok or self.peek()
        return DslError(message, tok.line, tok.col, self.filename)

    # -- file ----------------------------------------------------------------

    def parse_file(self) -> ParsedFile:
        parsed = ParsedFile({}, {})
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "use":
                self.parse_use(parsed)
            elif tok.kind == "ident" and tok.text == "algebra":
                pres = self.parse_algebra()
                self._declare(parsed.presentations, "algebra", pres, tok)
            elif tok.kind == "ident" and tok.text == "morphism":
                m = self.parse_morphism(parsed.presentations)
                self._declare(parsed.morphisms, "morphism", m, tok)
            else:
                raise self.error(
                    f"expected 'use', 'algebra' or 'morphism', found {tok.text!r}")
        return parsed

    def parse_use(self, parsed):
        self.expect("ident")  # 'use'
        while True:
            tok = self.expect("ident", "builtin name")
            if tok.text not in BUILTIN_NAMES:
                raise self.error(f"unknown builtin {tok.text!r}; expected one "
                                 f"of {', '.join(BUILTIN_NAMES)}", tok)
            used = builtin(tok.text)
            for pres in used.presentations.values():
                self._declare(parsed.presentations, "algebra", pres, tok)
            for m in used.morphisms.values():
                self._declare(parsed.morphisms, "morphism", m, tok)
            parsed.uses.append(tok.text)
            if self.peek().kind != ",":
                break
            self.next()
        self.expect(";")

    def _declare(self, table, kind, obj, tok):
        # the same builtin object may come into scope twice (use lorentz, coaction)
        if table.setdefault(obj.name, obj) is not obj:
            raise self.error(f"{kind} {obj.name} declared twice", tok)

    # -- algebra blocks --------------------------------------------------------

    def parse_algebra(self) -> Presentation:
        self.expect("ident")  # 'algebra'
        name_tok = self.expect("ident", "algebra name")
        self.expect("{")
        order, selfadj, heavy, weights = [], set(), set(), {}
        rel_spans = []
        while self.peek().kind != "}":
            head = self.expect("ident", "declaration keyword")
            if head.text == "gen":
                while self.peek().kind == "ident":
                    tok = self.next()
                    if tok.text in RESERVED or tok.text.endswith("'"):
                        raise self.error(f"invalid generator name {tok.text!r}", tok)
                    if tok.text in order:
                        raise self.error(f"generator {tok.text} declared twice", tok)
                    order.append(tok.text)
                self.expect(";")
            elif head.text == "selfadjoint":
                for tok in self._ident_list(order):
                    selfadj.add(tok.text)
                self.expect(";")
            elif head.text == "heavy":
                for tok in self._ident_list(order):
                    heavy.add(tok.text)
                self.expect(";")
            elif head.text == "weight":
                tok = self.expect("ident", "generator name")
                if tok.text not in order:
                    raise self.error(f"unknown generator {tok.text!r}", tok)
                self.expect("=")
                weights[tok.text] = tuple(self._parse_int_vector())
                self.expect(";")
            elif head.text == "rel":
                start = self.pos
                while self.peek().kind != ";":  # no expression holds a ';'
                    if self.peek().kind == "eof":
                        raise self.error("unterminated rel declaration", head)
                    self.next()
                rel_spans.append((start, head))
                self.expect(";")
            else:
                raise self.error(f"unknown declaration {head.text!r}", head)
        self.expect("}")

        generators = _build_generators(order, selfadj, heavy, weights,
                                       self.filename, name_tok)
        pres = Presentation(name_tok.text, generators)
        rules = []
        resume = self.pos
        for start, head in rel_spans:
            self.pos = start
            lhs = self._parse_rule_word(pres)
            self.expect("=")
            rhs = self.parse_poly(pres)
            if self.peek().kind != ";":
                raise self.error("expected ';' after relation")
            if not lhs:
                raise self.error("relation left-hand side must be a nonempty word",
                                 head)
            rules.append(RewriteRule(tuple(lhs), rhs))
        self.pos = resume

        pres = pres.with_rules(rules)
        report = check_termination(pres)
        if not report.ok:
            rule, word = report.violations[0]
            head = next(h for (_, h), r in zip(rel_spans, rules) if r is rule)
            lhs = render_word(rule.lhs, pres)
            bad = render_word(word, pres)
            raise DslError(
                f"rule {lhs!r} is not order-decreasing (offending word {bad!r})",
                head.line, head.col, self.filename)
        if self.star_closed:
            pres = star_closure(pres)
            if not check_termination(pres).ok:
                raise self.error(f"star closure of {pres.name} broke the term "
                                 "order", name_tok)
        return pres

    def _ident_list(self, order):
        toks = []
        while self.peek().kind == "ident":
            tok = self.next()
            if tok.text not in order:
                raise self.error(f"unknown generator {tok.text!r}", tok)
            toks.append(tok)
        if not toks:
            raise self.error("expected at least one generator name")
        return toks

    def _parse_int_vector(self):
        self.expect("[")
        out = [self._parse_signed_int()]
        while self.peek().kind == ",":
            self.next()
            out.append(self._parse_signed_int())
        self.expect("]")
        return out

    def _parse_signed_int(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.expect("number")
        if "/" in tok.text:
            raise self.error("expected an integer", tok)
        return sign * int(tok.text)

    def _parse_rule_word(self, pres):
        word = []
        while self.peek().kind == "ident":
            tok = self.next()
            word.append(self._resolve(pres, tok, leg=0))
        return word

    # -- morphism blocks --------------------------------------------------------

    def parse_morphism(self, presentations) -> Morphism:
        self.expect("ident")  # 'morphism'
        name_tok = self.expect("ident", "morphism name")
        self.expect(":")
        dom_tok = self.expect("ident", "domain algebra name")
        if dom_tok.text not in presentations:
            raise self.error(f"unknown algebra {dom_tok.text!r}", dom_tok)
        domain = presentations[dom_tok.text]
        self.expect("arrow", "'->'")
        factors = [self.expect("ident", "codomain algebra name")]
        while self.peek().kind == "@":
            self.next()
            factors.append(self.expect("ident", "codomain algebra name"))
        for tok in factors:
            if tok.text not in presentations:
                raise self.error(f"unknown algebra {tok.text!r}", tok)
        codomain = reduce(tensor, [presentations[t.text] for t in factors])
        self.expect("{")
        images = {}
        while self.peek().kind != "}":
            gen_tok = self.expect("ident", "generator name")
            try:
                idx = domain.index_of(gen_tok.text)
            except KeyError:
                raise self.error(f"unknown generator {gen_tok.text!r}", gen_tok)
            if domain.generators[idx].starred:
                raise self.error(
                    "images are declared for unstarred generators only; "
                    f"{gen_tok.text!r} is forced by star-equivariance", gen_tok)
            if idx in images:
                raise self.error(f"duplicate image for {gen_tok.text!r}", gen_tok)
            self.expect("arrow", "'->'")
            images[idx] = self.parse_poly(codomain)
            self.expect(";")
        self.expect("}")
        try:
            return Morphism.from_unstarred(name_tok.text, domain, codomain, images)
        except ValueError as exc:
            raise DslError(str(exc), name_tok.line, name_tok.col, self.filename)

    # -- polynomials -------------------------------------------------------------

    def parse_poly(self, pres: Presentation) -> NCPolynomial:
        """poly := ['-'] term (('+'|'-') term)*  over the given presentation."""
        negate = False
        if self.peek().kind == "-":
            self.next()
            negate = True
        poly = self._parse_term(pres, negate)
        while self.peek().kind in ("+", "-"):
            op = self.next()
            poly = poly + self._parse_term(pres, op.kind == "-")
        return poly

    def _parse_term(self, pres, negate) -> NCPolynomial:
        coeff = Scalar.one()
        word = []
        leg = 0
        saw_factor = False
        while True:
            tok = self.peek()
            factor = self._parse_scalar_factor()
            if factor is not None:
                coeff = coeff * factor
            elif tok.kind == "(":
                self.next()
                group = self.parse_poly(pres)
                if group.words() - {()}:
                    raise self.error("a parenthesized factor must be a scalar",
                                     tok)
                self.expect(")", "')'")
                coeff = coeff * group.coefficient(())
            elif tok.kind == "ident":
                self.next()
                word.append(self._resolve(pres, tok, leg))
            elif tok.kind == "@":
                self.next()
                leg += 1
                if leg >= pres.nlegs:
                    raise self.error(
                        f"term has more '@' legs than {pres.name} provides", tok)
            elif tok.kind == "*":
                self.next()
                continue
            else:
                break
            saw_factor = True
        if not saw_factor:
            raise self.error("expected a term")
        poly = NCPolynomial.word(tuple(word), coeff)
        return -poly if negate else poly

    def _fraction(self, tok) -> Fraction:
        try:
            return Fraction(tok.text)
        except ZeroDivisionError:
            raise self.error("rational with zero denominator", tok)

    def _parse_scalar_factor(self):
        """A number, i or q^k as a Scalar; None if the next token is none
        of them."""
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return Scalar.of(self._fraction(tok))
        if tok.kind != "ident" or tok.text not in ("i", "q"):
            return None
        self.next()
        if tok.text == "i":
            return Scalar.imag_unit()
        k = 1
        if self.peek().kind == "^":
            self.next()
            k = self._parse_signed_int()
        return Scalar.q_power(k)

    def _resolve(self, pres, tok, leg) -> int:
        name = tok.text
        base = name.rstrip("'")
        if len(name) - len(base) >= 2:  # a'' = a and so on
            name = base + "'" * ((len(name) - len(base)) % 2)
        try:
            return pres.index_of(name, leg)
        except KeyError:
            raise self.error(f"unknown generator {tok.text!r}"
                             + (f" on leg {leg}" if pres.nlegs > 1 else ""), tok)


def _build_generators(order, selfadj, heavy, weights, filename, name_tok):
    if not order:
        return ()

    def star_weight(w):
        pairs = list(zip(w[0::2], w[1::2]))
        out = []
        for u, v in pairs:
            out.extend((-v, -u))
        return tuple(out)

    for name in selfadj:
        w = weights.get(name)
        if w is not None and star_weight(w) != w:
            raise DslError(
                f"self-adjoint generator {name} must have a star-fixed weight, "
                f"got {w}", name_tok.line, name_tok.col, filename)
    n_unstarred = len(order)
    starred_names = [n for n in order if n not in selfadj]
    gens = []
    for pos, name in enumerate(order):
        if name in selfadj:
            partner = pos
        else:
            partner = n_unstarred + starred_names.index(name)
        gens.append(Generator(name, partner, starred=False, leg=0,
                              weight=weights.get(name), heavy=name in heavy))
    for k, name in enumerate(starred_names):
        base = order.index(name)
        w = weights.get(name)
        gens.append(Generator(name, base, starred=True, leg=0,
                              weight=star_weight(w) if w is not None else None,
                              heavy=name in heavy))
    return tuple(gens)


def parse(text: str, filename: str = "<string>", star_closed=False) -> ParsedFile:
    """Parse a .qalg source; raises DslError with line/column on failure.
    With star_closed, each algebra is star-closed as soon as it is parsed."""
    return _Parser(text, filename, star_closed).parse_file()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize(pres: Presentation) -> str:
    """Canonical text form of a single-leg presentation."""
    if pres.nlegs != 1:
        raise ValueError("only single-leg presentations are serialized to files")
    lines = [f"algebra {pres.name} {{"]
    unstarred = [g for g in pres.generators if not g.starred]
    if unstarred:
        lines.append("  gen " + " ".join(g.name for g in unstarred) + ";")
    selfadj = [g.name for i, g in enumerate(pres.generators)
               if not g.starred and g.star_partner == i]
    if selfadj:
        lines.append("  selfadjoint " + " ".join(selfadj) + ";")
    heavies = [g.name for g in unstarred if g.heavy]
    if heavies:
        lines.append("  heavy " + " ".join(heavies) + ";")
    for g in unstarred:
        if g.weight is not None:
            vec = ", ".join(str(v) for v in g.weight)
            lines.append(f"  weight {g.name} = [{vec}];")
    for rule in pres.rules:
        lhs = render_word(rule.lhs, pres)
        rhs = render_poly(rule.rhs, pres)
        lines.append(f"  rel {lhs} = {rhs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_morphism(m: Morphism) -> str:
    target = m.codomain.name.replace("@", " @ ")
    lines = [f"morphism {m.name} : {m.domain.name} -> {target} {{"]
    for i, g in enumerate(m.domain.generators):
        if g.starred:
            continue
        lines.append(f"  {g.display()} -> {render_poly(m.images[i], m.codomain)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_file(parsed: ParsedFile) -> str:
    """Canonical text: the `use` line, then the blocks declared locally."""
    used = [builtin(name) for name in parsed.uses]
    chunks = [f"use {', '.join(parsed.uses)};\n"] if used else []
    chunks += [serialize(p) for p in parsed.presentations.values()
               if not any(p.name in b.presentations for b in used)]
    chunks += [serialize_morphism(m) for m in parsed.morphisms.values()
               if not any(m.name in b.morphisms for b in used)]
    return "\n".join(chunks)


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------


def _load_source(name: str) -> str:
    return (resources.files("qmink.data") / f"{name}.qalg").read_text("utf-8")


@lru_cache(maxsize=None)
def builtin(name: str) -> ParsedFile:
    """Load a builtin file as its ParsedFile: algebras star-closed and
    termination-checked, morphisms normalized and validated (which the suites
    report), `use`d ones shared as is."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    parsed = parse(_load_source(name), filename=f"{name}.qalg", star_closed=True)
    for mname, m in parsed.morphisms.items():
        if m.validated:  # imported
            continue
        if any(m.codomain.normalize(img) != img for img in m.images.values()):
            raise DslError(f"builtin {name}: an image of morphism {mname} is not "
                           f"in normal form", filename=f"{name}.qalg")
        bad = next(iter(m.validate().failures()), None)
        if bad:
            raise DslError(f"builtin {name}: morphism {mname} does not "
                           f"preserve {bad.label} (residual {bad.rendered})",
                           filename=f"{name}.qalg")
    return parsed


def parse_expression(text: str, pres: Presentation) -> NCPolynomial:
    """Parse a bare polynomial expression over an existing presentation."""
    parser = _Parser(text, "<expression>")
    poly = parser.parse_poly(pres)
    if parser.peek().kind != "eof":
        raise parser.error(f"trailing input {parser.peek().text!r}")
    return poly
