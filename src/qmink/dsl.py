"""The .qalg presentation language: parser and builtin files.

A source file is a sequence of blocks:

    use minkowski, lorentz;         # builtins brought into scope, see below

    algebra NAME {
      gen a d b c;                  # declaration order = term order
      selfadjoint x y;              # optional
      heavy a d;                    # letters counted by the heavy degree
      weight a = [-1, 0, 1, 0];     # the grading a twist reads, see below
      rel b a = a b;                # oriented rewrite rule lhs = rhs
    }
    algebra NAME = twist PARTNER by psi_tilde, psi;

    morphism NAME : DOM -> COD [@ COD2 ...] {
      a -> a@a + b@c;               # images of the unstarred generators
    }
    morphism NAME : DOM -> COD [@ COD2 ...] = PARTNER of BUILTIN;

Stars are spelled with a trailing apostrophe (a'); declared generators are
automatically paired with starred partners unless listed selfadjoint, and
the combined generator order is "unstarred first, then the starred partners
in the same order".  Every algebra is star-closed as soon as it is parsed
(`ncalg.star_closure`), so a text means one *-algebra whether it is a
builtin or a file read by path; a closure that needs a relation whose
leading coefficient is not invertible is a DslError at the algebra's name.
Scalars are Gaussian rationals with powers of the formal unit q, e.g.
q^-4, 2*q, (1+i)*q^2, 1/2.  A parenthesized group
is any expression that reduces to a scalar: it is read by the polynomial
grammar, and no word may be left once like terms are collected, so (1+i),
((2 q)) and (a - a) are scalars and (a) is an error.  In morphism images the
tensor legs of the codomain are separated by '@', with '1' for an empty
leg.  Comments run from '#' to end of line.

`use` names builtin files only (no file-system imports) and brings their
star-closed algebras and morphisms into scope as the very objects
`builtin()` returns; redeclaring an imported name is an error.

A weight (u1, v1, u2, v2, ...) has one (u, v) pair per leg of the grading
(see `ncalg.Generator`): every weight of an algebra has the same even
length and a generator has one `weight` line, and a self-adjoint generator's
weight must be fixed by the star.  `twist` derives an algebra from a
weighted PARTNER, an algebra in scope or else a builtin one, which does not
come into scope: its generators, and its rules with the q-powers of
`ncalg.twist`, one phase (`psi` or `psi_tilde`) per leg.  `= PARTNER of
BUILTIN` copies the images of that builtin file's morphism as typed, before
normalization; they carry over by generator index, so the domain and
codomain must list the partner's generators.  `twist`, `by` and `of` are
reserved words.  Builtin files are read from `data/` next to this module.
"""

import os
import re
from collections import namedtuple
from functools import lru_cache, reduce

from .coact import Morphism, same_generators
from .ncalg import (Generator, NCPolynomial, Presentation, RewriteRule,
                    UnorientableRuleError, check_termination, render_poly,
                    render_word, star_closure, tensor, twist)
from .scalars import ONE, Scalar, psi_phase, psi_tilde_phase

BUILTIN_NAMES = ("lorentz", "minkowski", "coaction", "classical")

RESERVED = {"q", "i", "gen", "selfadjoint", "heavy", "weight", "rel",
            "algebra", "morphism", "use", "twist", "by", "of"}

# the phase functions a twist may name; no other text is looked up
PHASES = {"psi": psi_phase, "psi_tilde": psi_tilde_phase}


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


# kind is 'arrow', 'number', 'ident', a punctuation character or 'eof'
Token = namedtuple("Token", "kind text line col")


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


class ParsedFile(namedtuple("ParsedFile", "presentations morphisms images")):
    """The algebras in scope (imported ones included) and morphisms, by
    name, and the unstarred images of the file's own morphisms as typed,
    before normalization (what a copy of a morphism copies)."""

    __slots__ = ()

    def presentation(self, name) -> Presentation:
        return self.presentations[name]

    def morphism(self, name) -> Morphism:
        return self.morphisms[name]


class _Parser:
    def __init__(self, text, filename="<string>"):
        self.filename = filename
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

    def keyword(self, word):
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            raise self.error(f"expected '{word}', found {tok.text!r}", tok)

    def listed(self, item, sep=","):
        """item() (sep item())*, as a list."""
        out = [item()]
        while self.peek().kind == sep:
            self.next()
            out.append(item())
        return out

    # -- file ----------------------------------------------------------------

    def parse_file(self) -> ParsedFile:
        parsed = ParsedFile({}, {}, {})
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "use":
                self.parse_use(parsed)
            elif tok.kind == "ident" and tok.text == "algebra":
                pres = self.parse_algebra(parsed.presentations)
                self._declare(parsed.presentations, "algebra", pres, tok)
            elif tok.kind == "ident" and tok.text == "morphism":
                m, images = self.parse_morphism(parsed.presentations)
                self._declare(parsed.morphisms, "morphism", m, tok)
                parsed.images[m.name] = images
            else:
                raise self.error(
                    f"expected 'use', 'algebra' or 'morphism', found {tok.text!r}")
        return parsed

    def parse_use(self, parsed):
        self.expect("ident")  # 'use'
        for tok in self.listed(lambda: self.expect("ident", "builtin name")):
            used = self._builtin(tok)
            for pres in used.presentations.values():
                self._declare(parsed.presentations, "algebra", pres, tok)
            for m in used.morphisms.values():
                self._declare(parsed.morphisms, "morphism", m, tok)
        self.expect(";")

    def _builtin(self, tok) -> ParsedFile:
        if tok.text not in BUILTIN_NAMES:
            raise self.error(f"unknown builtin {tok.text!r}; expected one "
                             f"of {', '.join(BUILTIN_NAMES)}", tok)
        return builtin(tok.text)

    def _declare(self, table, kind, obj, tok):
        # the same builtin object may come into scope twice (use lorentz, coaction)
        if table.setdefault(obj.name, obj) is not obj:
            raise self.error(f"{kind} {obj.name} declared twice", tok)

    # -- algebra blocks --------------------------------------------------------

    def parse_algebra(self, presentations) -> Presentation:
        """A block or a twist, termination-checked and star-closed alike."""
        self.expect("ident")  # 'algebra'
        name_tok = self.expect("ident", "algebra name")
        if self.peek().kind == "=":
            pres = self._parse_twist(name_tok, presentations)
            heads = [name_tok] * len(pres.rules)
        else:
            pres, heads = self._parse_block(name_tok)
        violations = check_termination(pres)
        if violations:
            rule, word = violations[0]
            head = next(h for h, r in zip(heads, pres.rules) if r is rule)
            lhs = render_word(rule.lhs, pres)
            bad = render_word(word, pres)
            raise DslError(
                f"rule {lhs!r} is not order-decreasing (offending word {bad!r})",
                head.line, head.col, self.filename)
        try:
            pres = star_closure(pres)
        except UnorientableRuleError as exc:
            raise self.error(f"star closure of {pres.name}: {exc}", name_tok)
        if check_termination(pres):
            raise self.error(f"star closure of {pres.name} broke the term order",
                             name_tok)
        return pres

    def _parse_twist(self, name_tok, presentations) -> Presentation:
        """= twist PARTNER by PHASE, ...;"""
        self.expect("=")
        self.keyword("twist")
        partner_tok = self.expect("ident", "algebra name")
        partner = presentations.get(partner_tok.text)
        if partner is None:
            try:
                partner = builtin_algebra(partner_tok.text)
            except DslError:
                raise self.error(f"unknown algebra {partner_tok.text!r}",
                                 partner_tok) from None
        self.keyword("by")
        phases = []
        for tok in self.listed(lambda: self.expect("ident", "phase name")):
            if tok.text not in PHASES:
                raise self.error(f"unknown phase {tok.text!r}; expected one of "
                                 f"{', '.join(PHASES)}", tok)
            phases.append(PHASES[tok.text])
        self.expect(";")
        try:
            return twist(partner, name_tok.text, phases)
        except ValueError as exc:
            raise self.error(str(exc), partner_tok) from None

    def _parse_block(self, name_tok):
        """{ declarations }: the presentation, and each rule's rel token."""
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
            elif head.text in ("selfadjoint", "heavy"):
                names = selfadj if head.text == "selfadjoint" else heavy
                names.update(tok.text for tok in self._ident_list(order))
                self.expect(";")
            elif head.text == "weight":
                tok = self.expect("ident", "generator name")
                if tok.text not in order:
                    raise self.error(f"unknown generator {tok.text!r}", tok)
                if tok.text in weights:
                    raise self.error(f"weight of {tok.text} declared twice", head)
                self.expect("=")
                w = tuple(self._parse_int_vector())
                if len(w) % 2 or len(w) != len(next(iter(weights.values()), w)):
                    raise self.error(f"weight of {tok.text} has {len(w)} entries; each "
                                     f"weight needs the same even number", head)
                weights[tok.text] = w
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
        return pres.with_rules(rules), [head for _, head in rel_spans]

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
        out = self.listed(self._parse_signed_int)
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

    def parse_morphism(self, presentations):
        """The morphism, and its unstarred images as typed or copied."""
        self.expect("ident")  # 'morphism'
        name_tok = self.expect("ident", "morphism name")
        self.expect(":")
        dom_tok = self.expect("ident", "domain algebra name")
        self.expect("arrow", "'->'")
        factors = self.listed(lambda: self.expect("ident", "codomain algebra name"),
                              "@")
        for tok in (dom_tok, *factors):
            if tok.text not in presentations:
                raise self.error(f"unknown algebra {tok.text!r}", tok)
        domain = presentations[dom_tok.text]
        codomain = reduce(tensor, [presentations[t.text] for t in factors])
        if self.peek().kind == "=":
            images = self._copied_images(domain, codomain)
        else:
            images = self._image_block(domain, codomain)
        try:
            m = Morphism.from_unstarred(name_tok.text, domain, codomain, images)
        except ValueError as exc:
            raise DslError(str(exc), name_tok.line, name_tok.col, self.filename)
        return m, images

    def _copied_images(self, domain, codomain):
        """= PARTNER of BUILTIN;"""
        self.expect("=")
        name_tok = self.expect("ident", "morphism name")
        self.keyword("of")
        file_tok = self.expect("ident", "builtin name")
        source = self._builtin(file_tok)
        if name_tok.text not in source.images:
            raise self.error(f"{file_tok.text}.qalg declares no morphism "
                             f"{name_tok.text!r}", name_tok)
        partner = source.morphism(name_tok.text)
        for mine, theirs in ((domain, partner.domain),
                             (codomain, partner.codomain)):
            if not same_generators(mine, theirs):
                raise self.error(f"{mine.name} and {theirs.name} do not list the "
                                 f"same generators", name_tok)
        self.expect(";")
        return source.images[name_tok.text]

    def _image_block(self, domain, codomain):
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
        return images

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
        coeff = ONE
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

    def _fraction(self, tok):
        """The number token's value: an `int`, or a `Fraction` for p/q."""
        if "/" not in tok.text:
            return int(tok.text)
        from fractions import Fraction
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

    def star_weight(w):  # each (u, v) pair becomes (-v, -u)
        return tuple(x for u, v in zip(w[0::2], w[1::2]) for x in (-v, -u))

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


def parse(text: str, filename: str = "<string>") -> ParsedFile:
    """Parse a .qalg source, each algebra star-closed and termination-checked
    as soon as it is parsed; raises DslError with line/column on failure."""
    return _Parser(text, filename).parse_file()


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------


def _load_source(name: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.qalg")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@lru_cache(maxsize=None)
def builtin(name: str) -> ParsedFile:
    """The shipped file's `parse`, once per process; `use`d objects are
    shared as is.  Its morphisms are not validated here: the suites that
    report them do that (the classical references are certified by the
    tests)."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    return parse(_load_source(name), filename=f"{name}.qalg")


@lru_cache(maxsize=None)
def _algebra_names(file: str) -> frozenset:
    """The names after the token `algebra` in a builtin file, read once per
    process (each twist of a builtin partner looks it up)."""
    words = [tok.text for tok in _tokenize(_load_source(file), file)]
    return frozenset(b for a, b in zip(words, words[1:]) if a == "algebra")


def builtin_algebra(name: str) -> Presentation:
    """The builtin algebra NAME.  Its file is found by the tokens `algebra
    NAME`, so only that file and the ones it `use`s are parsed."""
    for file in BUILTIN_NAMES:
        if name in _algebra_names(file):
            return builtin(file).presentation(name)
    raise DslError(f"no builtin algebra named {name!r}")


def parse_expression(text: str, pres: Presentation) -> NCPolynomial:
    """Parse a bare polynomial expression over an existing presentation."""
    parser = _Parser(text, "<expression>")
    poly = parser.parse_poly(pres)
    if parser.peek().kind != "eof":
        raise parser.error(f"trailing input {parser.peek().text!r}")
    return poly
