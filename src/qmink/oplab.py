"""Shift-multiplier operator calculus for (p^2, q^2)-commuting normal pairs.

Operators act on functions of two real variables (x, y) and are finite sums
of atoms  M_f T_{(dx,dy)}  with  (M_f T_v phi)(x, y) = f(x,y) phi(x-dx, y-dy)
and f a closed-form multiplier.  The concrete model realizing a
(p^2, q^2)-commuting pair is

    R = M_{e^x} T_{(0,c)},   S = M_{e^y} T_{(a,0)},
    a = ln(p/q),  c = -ln(p q),

so that R, S are normal with |R|^2 = e^{2x}, |S|^2 = e^{2y}, and
RS = p^2 SR, RS* = q^2 S*R.  Because R*R and S*S are zero-shift multipliers,
every z-transform expression stays inside the atom algebra with closed-form
multipliers: identity checks are pointwise evaluations, with no
discretization, truncation, or boundary effects.  (No finite-dimensional
normal pair can scale by p != 1, which is why a function-space model is
used instead of matrices.)

Multipliers are built in a canonical form.  Every product is one monomial
c e^{ax+by} times its other factors (sums, quotients, square roots) in a
fixed structural order, and every sum combines the terms that share their
non-constant part and drops a coefficient that is exactly zero.  So an
identity whose two sides are algebraically equal products is one node on
both sides, and a sum whose terms cancel is the zero multiplier: at
p = q = 1, where every shift is zero, this is why def-mu2, twrs and
(QQ*)_12, (QQ*)_21 hold exactly, not by an evaluation order.

Residuals compare multipliers bucket-by-bucket over seeded sample points in
the box [-BOX, BOX]^2 = [-4,4]^2, scaled by max(1, |value|) so the 1e-12
tolerance is meaningful for multipliers as large as e^8 * pq there.

Evaluation is column-wise: a multiplier maps the column of sample points to
a column of values, node by node, with a memo that holds one column per
distinct node (and one per distinct exponential).  Alone, a comparison
(`op_equal`, `op_norm_sample`) draws its points and fills its memo for
itself.  Inside a `shared_samples` block, which the pq suite enters once
per model, every comparison with the same (samples, seed) shares one
set of sample columns and one memo, so the nodes common to a model's checks
are evaluated once; both go when the block ends.  Equal nodes hold equal
fields, so a value never depends on which of them filled the memo.
"""

import cmath
import math
import random
from collections import namedtuple
from contextlib import contextmanager
from operator import attrgetter

from .reports import NumericCheck, Residual, fold_max
from .scalars import Scalar

BOX = 4.0
DEFAULT_SHIFT_TOL = 1e-9


class PositivityError(ArithmeticError):
    """A square root was evaluated at a non-positive-real argument."""


# ---------------------------------------------------------------------------
# closed-form multipliers
# ---------------------------------------------------------------------------


def _canon(v):
    """v as a float when it is real, with both zero signs read as +0.0."""
    v = complex(v) + 0j
    return v if v.imag else v.real


def _exp(z):
    return cmath.exp(z) if isinstance(z, complex) else math.exp(z)


class MultiplierExpr:
    """Closed-form expression in (x, y): monomials c e^{ax+by}, +, *, /, sqrt.

    Nodes are immutable and built only in canonical form (`Const`, `ExpLin`,
    `+`, `*`, `Div`, `Sqrt`).  `key` spells a node's structure, exact floats
    included; equal keys mean equal nodes, which compare and hash equal.
    `column` is the one evaluator: it maps sample columns (xs, ys) to a
    column of values, filling a memo with one column per distinct node, so
    a node that occurs many times, or is rebuilt along another route, is
    evaluated once per memo.  `f(x, y)` is the column evaluator on a single
    point.
    """

    __slots__ = ("key", "_hash")

    def _keyed(self, key):
        self.key, self._hash = key, hash(key)

    def __eq__(self, other):
        return self is other or (isinstance(other, MultiplierExpr)
                                 and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.key

    def __call__(self, x: float, y: float) -> complex:
        return self.column((x,), (y,), {})[0]

    def column(self, xs, ys, memo: dict) -> list:
        col = memo.get(self)
        if col is None:
            col = memo[self] = self._column(xs, ys, memo)
        return col

    def _column(self, xs, ys, memo) -> list:
        raise NotImplementedError

    def conj(self) -> "MultiplierExpr":
        raise NotImplementedError

    def shift(self, dx: float, dy: float) -> "MultiplierExpr":
        """Substitute x -> x - dx, y -> y - dy."""
        raise NotImplementedError

    def __mul__(self, other):
        f, g = _as_mul(self), _as_mul(other)
        return _mono(f.c * g.c, f.a + g.a, f.b + g.b, f.factors + g.factors)

    def __add__(self, other):
        return _sum((*_terms(self), *_terms(other)))


class Mul(MultiplierExpr):
    """The product c e^{ax+by} f_1 ... f_k, with the factors f_i sorted by key.

    The f_i are sums, quotients and square roots; constants and exponentials
    are folded into the monomial when the product is built, so a product
    has one node however its factors were grouped.  Its column is
    ((c e^{ax+by}) f_1) ... f_k, multiplied in that order, with no sort; a
    factor c = 1 or e^0 is skipped, which changes at most the sign of a
    zero.  `fkey` is the key without c: the terms of a sum with equal fkey
    are combined.
    """

    __slots__ = ("c", "a", "b", "factors", "fkey")

    def __init__(self, c, a, b, factors):  # canonical arguments: see _mono
        self.c, self.a, self.b, self.factors = c, a, b, factors
        self.fkey = f"e({a!r},{b!r})" + "".join("*" + f.key for f in factors)
        self._keyed(repr(c) + self.fkey)

    def _column(self, xs, ys, memo):
        c, a, b = self.c, self.a, self.b
        cols = [f.column(xs, ys, memo) for f in self.factors]
        if a or b:
            col = memo.get((a, b))
            if col is None:
                exp = cmath.exp if complex in (type(a), type(b)) else math.exp
                col = memo[(a, b)] = [exp(a * x + b * y) for x, y in zip(xs, ys)]
            cols.insert(0, col)
        if not cols:
            return [c] * len(xs)
        col = cols[0] if c == 1 else [c * v for v in cols[0]]
        for f in cols[1:]:
            col = [u * v for u, v in zip(col, f)]
        return col

    def conj(self):
        return _mono(self.c.conjugate(), self.a.conjugate(), self.b.conjugate(),
                     tuple(f.conj() for f in self.factors))

    def shift(self, dx, dy):
        if not (dx or dy):
            return self
        a, b = self.a, self.b
        return _mono(self.c * _exp(-(a * dx + b * dy)), a, b,
                     tuple(f.shift(dx, dy) for f in self.factors))


ZERO = Mul(0.0, 0.0, 0.0, ())
_key = attrgetter("key")


def _mono(c, a, b, factors=()):
    """The canonical product c e^{ax+by} * factors: zero if c is, and the
    bare factor if it is the only one and c e^{ax+by} = 1."""
    c = _canon(c)
    if c == 0:
        return ZERO
    a, b = _canon(a), _canon(b)
    if c == 1 and not (a or b) and len(factors) == 1:
        return factors[0]
    return Mul(c, a, b, tuple(sorted(factors, key=_key)))


def Const(value) -> MultiplierExpr:
    return _mono(value, 0.0, 0.0)


def ExpLin(cx, cy) -> MultiplierExpr:
    """e^{cx * x + cy * y}; coefficients may be complex."""
    return _mono(1.0, cx, cy)


def _as_mul(e):
    return e if isinstance(e, Mul) else Mul(1.0, 0.0, 0.0, (e,))


def _terms(e):
    return e.terms if isinstance(e, Add) else (_as_mul(e),)


def _sum(terms):
    """The canonical sum of Mul terms: equal fkeys combined in order, zero
    coefficients dropped, the rest sorted by fkey."""
    acc = {}
    for t in terms:
        old = acc.get(t.fkey)
        acc[t.fkey] = t if old is None else Mul(_canon(old.c + t.c), t.a, t.b,
                                                t.factors)
    terms = tuple(t for _, t in sorted(acc.items()) if t.c != 0)
    if len(terms) > 1:
        return Add(terms)
    if not terms:
        return ZERO
    (t,) = terms
    return _mono(t.c, t.a, t.b, t.factors)


class Add(MultiplierExpr):
    """A sum of two or more Mul terms with distinct fkeys, summed in order."""

    __slots__ = ("terms",)

    def __init__(self, terms):  # canonical terms: see _sum
        self.terms = terms
        self._keyed("A(" + ",".join(t.key for t in terms) + ")")

    def _column(self, xs, ys, memo):
        cols = [t.column(xs, ys, memo) for t in self.terms]
        col = cols[0]
        for f in cols[1:]:
            col = [u + v for u, v in zip(col, f)]
        return col

    def conj(self):
        return _sum([_as_mul(t.conj()) for t in self.terms])

    def shift(self, dx, dy):
        return _sum([_as_mul(t.shift(dx, dy)) for t in self.terms])


class Div(MultiplierExpr):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den
        self._keyed(f"D({num.key},{den.key})")

    def _column(self, xs, ys, memo):
        cn = self.num.column(xs, ys, memo)
        return [u / v for u, v in zip(cn, self.den.column(xs, ys, memo))]

    def conj(self):
        return Div(self.num.conj(), self.den.conj())

    def shift(self, dx, dy):
        return Div(self.num.shift(dx, dy), self.den.shift(dx, dy))


class Sqrt(MultiplierExpr):
    """Square root of a positive expression; positivity checked at evaluation."""

    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg
        self._keyed(f"S({arg.key})")

    def _column(self, xs, ys, memo):
        vals = self.arg.column(xs, ys, memo)
        for v, x, y in zip(vals, xs, ys):
            scale = abs(v) + 1.0
            if abs(v.imag) > 1e-9 * scale or v.real < -1e-9 * scale:
                raise PositivityError(f"sqrt argument {complex(v)} at ({x}, {y}) "
                                      f"is not a positive real")
        return [math.sqrt(max(v.real, 0.0)) for v in vals]

    def conj(self):
        return Sqrt(self.arg.conj())

    def shift(self, dx, dy):
        return Sqrt(self.arg.shift(dx, dy))


ONE_EXPR = Const(1.0)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class ShiftMultiplierOperator:
    """Finite sum of (multiplier, shift) atoms; immutable."""

    __slots__ = ("atoms",)

    def __init__(self, atoms=None):
        """atoms: a dict, or pairs, of shift -> multiplier.  Multipliers of
        equal shifts are summed in order, and zero ones dropped."""
        canon = {}
        for v, f in (atoms.items() if isinstance(atoms, dict) else atoms or ()):
            key = (float(v[0]), float(v[1]))
            canon[key] = canon[key] + f if key in canon else f
        object.__setattr__(self, "atoms", {
            k: f for k, f in canon.items() if f is not ZERO})

    @staticmethod
    def zero() -> "ShiftMultiplierOperator":
        return ShiftMultiplierOperator()

    @staticmethod
    def multiplier(expr: MultiplierExpr) -> "ShiftMultiplierOperator":
        return ShiftMultiplierOperator({(0.0, 0.0): expr})

    def is_zero(self) -> bool:
        return not self.atoms

    def scaled(self, c: complex) -> "ShiftMultiplierOperator":
        return ShiftMultiplierOperator(
            {v: Const(c) * f for v, f in self.atoms.items()})

    def __add__(self, other):
        return ShiftMultiplierOperator([*self.atoms.items(), *other.atoms.items()])

    def apply(self, func, point):
        """Evaluate (A phi)(point) for a sampled/closed-form function phi."""
        x, y = point
        total = 0j
        for (dx, dy), f in self.atoms.items():
            total += f(x, y) * func(x - dx, y - dy)
        return total

    def __repr__(self):
        return f"ShiftMultiplierOperator({sorted(self.atoms)})"


def compose(a: ShiftMultiplierOperator, b: ShiftMultiplierOperator):
    """(M_f T_v)(M_g T_w) = M_{f * (g o tau_v)} T_{v+w}."""
    return ShiftMultiplierOperator([((v[0] + w[0], v[1] + w[1]), f * g.shift(*v))
                                    for v, f in a.atoms.items()
                                    for w, g in b.atoms.items()])


def adjoint(a: ShiftMultiplierOperator) -> ShiftMultiplierOperator:
    """(M_f T_v)* = M_{conj(f) o tau_{-v}} T_{-v}."""
    return ShiftMultiplierOperator([((-dx, -dy), f.conj().shift(-dx, -dy))
                                    for (dx, dy), f in a.atoms.items()])


def _diagonal_modulus(a: ShiftMultiplierOperator) -> MultiplierExpr:
    """Multiplier of A*A when it is a single zero-shift atom; errors otherwise.
    For a one-atom A = M_f T_v that shift is v + (-v), exactly (0.0, 0.0)."""
    prod = compose(adjoint(a), a)
    keys = list(prod.atoms)
    if keys not in ([], [(0.0, 0.0)]):
        raise ValueError(f"A*A is not a zero-shift multiplier (shifts {keys})")
    return prod.atoms.get((0.0, 0.0), ZERO)


def z_transform(a: ShiftMultiplierOperator, scale: float = 1.0):
    """Contraction z(scale*A) = scale A (1 + scale^2 A*A)^{-1/2}.

    Requires A*A to be a zero-shift multiplier (true for the normal atoms
    of a PQModel); the result is again a single-atom operator whose
    multiplier has absolute value < 1 everywhere.
    """
    if scale <= 0:
        raise ValueError("z-transform scale must be positive")
    if a.is_zero():
        return ShiftMultiplierOperator.zero()
    return compose(a, defect_sqrt(a, scale)).scaled(scale)


def defect_sqrt(a: ShiftMultiplierOperator, scale: float = 1.0):
    """(1 - z_scale(A)* z_scale(A))^{1/2} as a zero-shift multiplier.

    Since z_s(A)*z_s(A) = s^2 A*A (1 + s^2 A*A)^{-1}, the defect is exactly
    (1 + s^2 A*A)^{-1/2}; building it in that form avoids the catastrophic
    cancellation of a literal 1 - z*z subtraction where |z| approaches 1.
    """
    m = _diagonal_modulus(a)
    return ShiftMultiplierOperator.multiplier(
        Div(ONE_EXPR, Sqrt(ONE_EXPR + Const(scale * scale) * m)))


# ---------------------------------------------------------------------------
# the (p,q) model
# ---------------------------------------------------------------------------


class PQModel(namedtuple("PQModel", "p q a c R S")):
    """Concrete normal pair R, S (ShiftMultiplierOperators) with
    RS = p^2 SR and RS* = q^2 S*R, and the model's shifts a and c."""

    __slots__ = ()


def build_pq_pair(p: float, q: float) -> PQModel:
    """The model's R and S; ValueError if p/q or p q leaves double range.
    Each is normal by construction: R*R and RR* are built as the same
    canonical atoms (so agree at every point), else RuntimeError names it."""
    if not (0 < p < math.inf and 0 < q < math.inf):
        raise ValueError(f"p and q must be finite and positive, not p={p!r}, q={q!r}")
    ratio, product = p / q, p * q  # may overflow to inf or underflow to 0
    if not (0 < ratio < math.inf and 0 < product < math.inf):
        raise ValueError(f"p={p!r}, q={q!r} is outside the model's double-precision "
                         f"range (p/q = {ratio!r}, p*q = {product!r})")
    a, c = math.log(ratio), -math.log(product)
    R = ShiftMultiplierOperator({(0.0, c): ExpLin(1.0, 0.0)})
    S = ShiftMultiplierOperator({(a, 0.0): ExpLin(0.0, 1.0)})
    for op, label in ((R, "R"), (S, "S")):
        if compose(adjoint(op), op).atoms != compose(op, adjoint(op)).atoms:
            raise RuntimeError(f"{label} is not normal in the model")
    return PQModel(p, q, a, c, R, S)


# ---------------------------------------------------------------------------
# operator comparison
# ---------------------------------------------------------------------------


# (samples, seed) -> (xs, ys, memo) inside a `shared_samples` block;
# None outside one.  The suites run in one thread.
_scope = None


@contextmanager
def shared_samples():
    """A block whose comparisons share sample columns and column memos.

    Inside it, every `op_equal` and `op_norm_sample` with the same
    (samples, seed) draws its points once and fills one memo, so a
    subtree common to several comparisons is evaluated once.  Both are
    dropped when the block ends; a nested block starts afresh.
    """
    global _scope
    outer, _scope = _scope, {}
    try:
        yield
    finally:
        _scope = outer


def _sample_columns(samples, seed):
    """Seeded sample points in the box, as the columns (xs, ys), and the
    column memo that goes with them (shared inside `shared_samples`)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    scope = _scope
    key = (samples, seed)
    if scope is not None and key in scope:
        return scope[key]
    rng = random.Random(seed)
    points = [(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)) for _ in range(samples)]
    xs, ys = map(list, zip(*points))
    columns = xs, ys, {}
    if scope is not None:
        scope[key] = columns
    return columns


def _columns(exprs, xs, ys, memo):
    """The columns of exprs over the sample points.

    If evaluation fails, the points are replayed one at a time (each expr
    in turn), so the error raised is the one a point-by-point walk meets
    first and names the same point.
    """
    try:
        return [f.column(xs, ys, memo) for f in exprs]
    except ArithmeticError:
        for x, y in zip(xs, ys):
            for f in exprs:
                f(x, y)
        raise


def _match_buckets(a, b, shift_tol):
    pairs, unmatched_a, used = [], [], set()
    for va in a.atoms:
        best = next((vb for vb in b.atoms if vb not in used
                     and abs(va[0] - vb[0]) <= shift_tol
                     and abs(va[1] - vb[1]) <= shift_tol), None)
        if best is None:
            unmatched_a.append(va)
        else:
            used.add(best)
            pairs.append((va, best))
    unmatched_b = [vb for vb in b.atoms if vb not in used]
    return pairs, unmatched_a, unmatched_b


def op_equal(a: ShiftMultiplierOperator, b: ShiftMultiplierOperator, *,
             samples: int = 1000, seed: int = 0,
             shift_tol: float = DEFAULT_SHIFT_TOL) -> Residual:
    """Scaled residual of operator equality.

    Shift buckets are matched within shift_tol; matched multipliers are
    compared pointwise over seeded samples with the residual
    |f_a - f_b| / max(1, |f_a|, |f_b|); an unmatched bucket contributes its
    own scaled magnitude.  Multipliers are evaluated column-wise with one
    memo for the whole comparison, or for the enclosing `shared_samples`
    block.
    """
    xs, ys, memo = _sample_columns(samples, seed)
    pairs, only_a, only_b = _match_buckets(a, b, shift_tol)
    best = (0.0, 0)
    for va, vb in pairs:
        cu, cv = _columns((a.atoms[va], b.atoms[vb]), xs, ys, memo)
        best = fold_max(best, [abs(u - v) / max(1.0, abs(u), abs(v))
                               for u, v in zip(cu, cv)])
    for op, keys in ((a, only_a), (b, only_b)):
        for k in keys:
            (cu,) = _columns((op.atoms[k],), xs, ys, memo)
            best = fold_max(best, [u / max(1.0, u) for u in map(abs, cu)])
    worst, at = best
    return Residual(worst, (xs[at], ys[at]))


def op_norm_sample(a: ShiftMultiplierOperator, *, samples=1000,
                   seed=0) -> Residual:
    """Max multiplier magnitude over sample points (0 for the zero operator;
    the first NaN or inf if there is one), at the first point attaining it."""
    xs, ys, memo = _sample_columns(samples, seed)
    best = (0.0, 0)
    for f in a.atoms.values():
        (col,) = _columns((f,), xs, ys, memo)
        best = fold_max(best, map(abs, col))
    worst, at = best
    return Residual(worst, (xs[at], ys[at]))


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def check_def_mu2(model: PQModel, samples: int = 1000,
                  seed: int = 0) -> NumericCheck:
    """The two z-transform identities defining a (p^2, q^2)-commuting pair:

        z(R) z(S*) = z_{pq}(S*) z_{q/p}(R)
        z_{q/p}(R) z(S) = z_{pq}(S) z(R)
    """
    p, q, R, S = model.p, model.q, model.R, model.S
    Sstar = adjoint(S)
    kw = dict(samples=samples, seed=seed)
    r1 = op_equal(compose(z_transform(R), z_transform(Sstar)),
                  compose(z_transform(Sstar, p * q), z_transform(R, q / p)), **kw)
    r2 = op_equal(compose(z_transform(R, q / p), z_transform(S)),
                  compose(z_transform(S, p * q), z_transform(R)), **kw)
    return NumericCheck("def-mu2", (("z(R)z(S*) = z_pq(S*)z_q/p(R)", r1),
                                    ("z_q/p(R)z(S) = z_pq(S)z(R)", r2)))


def build_Q(model: PQModel):
    """The 2x2 affiliation matrix of the product RS:

        [ (1-z_{p/q}(R)*z_{p/q}(R))^{1/2} (1-z(S)*z(S))^{1/2}    -z(S)* z(R)*  ]
        [ z(R) z(S)        (1-z(R)*z(R))^{1/2} (1-z_{pq}(S)*z_{pq}(S))^{1/2}   ]
    """
    p, q, R, S = model.p, model.q, model.R, model.S
    zR, zS = z_transform(R), z_transform(S)
    q11 = compose(defect_sqrt(R, p / q), defect_sqrt(S))
    q12 = compose(adjoint(zS), adjoint(zR)).scaled(-1.0)
    q21 = compose(zR, zS)
    q22 = compose(defect_sqrt(R), defect_sqrt(S, p * q))
    return ((q11, q12), (q21, q22))


def _qq_star(Q):
    zero = ShiftMultiplierOperator.zero()
    return [[sum((compose(Q[i][k], adjoint(Q[j][k])) for k in range(2)), zero)
             for j in range(2)] for i in range(2)]


def check_QQstar(model: PQModel, samples: int = 1000,
                 seed: int = 0) -> NumericCheck:
    """QQ* must be diagonal with the closed-form rational diagonal.

    With A = (p/q)^2 e^{2x}, B = e^{2y}:      (QQ*)_11 = (1+AB)/((1+A)(1+B));
    with A = e^{2x},      B = (pq)^2 e^{2y}:  (QQ*)_22 = (1+AB)/((1+A)(1+B)).
    The scale factors (p/q)^2 and (pq)^2 come from commuting z(S)* past
    z(R)*z(R) (and z(R)*z(R) past z_{pq}(S)*z_{pq}(S)); at p = q the first
    closed form is literally (1+|R|^2|S|^2)/((1+|R|^2)(1+|S|^2)).
    """
    p, q = model.p, model.q
    P = _qq_star(build_Q(model))
    kw = dict(samples=samples, seed=seed)

    def diagonal_form(ax: float, by: float):
        A = Const(ax) * ExpLin(2.0, 0.0)
        B = Const(by) * ExpLin(0.0, 2.0)
        num = ONE_EXPR + A * B
        den = (ONE_EXPR + A) * (ONE_EXPR + B)
        return ShiftMultiplierOperator.multiplier(Div(num, den))

    zero = ShiftMultiplierOperator.zero()
    r12 = op_equal(P[0][1], zero, **kw)
    r21 = op_equal(P[1][0], zero, **kw)
    r11 = op_equal(P[0][0], diagonal_form((p / q) ** 2, 1.0), **kw)
    r22 = op_equal(P[1][1], diagonal_form(1.0, (p * q) ** 2), **kw)
    return NumericCheck("QQ*", (("(QQ*)_12 = 0", r12), ("(QQ*)_21 = 0", r21),
                                ("(QQ*)_11 closed form", r11),
                                ("(QQ*)_22 closed form", r22)))


def check_twrs(model: PQModel, samples: int = 1000,
               seed: int = 0) -> NumericCheck:
    """RS = p^2 SR, RS* = q^2 S*R, and the joint-core identities

        RS (1-z(R)*z(R))^{1/2} (1-z(S)*z(S))^{1/2} = (p/q)  z_{q/p}(R) z(S)
        SR (1-z(R)*z(R))^{1/2} (1-z(S)*z(S))^{1/2} = 1/(pq) z_{pq}(S) z(R)
    """
    p, q, R, S = model.p, model.q, model.R, model.S
    kw = dict(samples=samples, seed=seed)
    Sstar = adjoint(S)
    r_comm = op_equal(compose(R, S), compose(S, R).scaled(p * p), **kw)
    r_comm_star = op_equal(compose(R, Sstar), compose(Sstar, R).scaled(q * q), **kw)
    dd = compose(defect_sqrt(R), defect_sqrt(S))
    core1 = op_equal(compose(compose(R, S), dd),
                     compose(z_transform(R, q / p), z_transform(S)).scaled(p / q),
                     **kw)
    core2 = op_equal(compose(compose(S, R), dd),
                     compose(z_transform(S, p * q), z_transform(R)).scaled(1.0 / (p * q)),
                     **kw)
    return NumericCheck("twrs", (("RS = p^2 SR", r_comm),
                                 ("RS* = q^2 S*R", r_comm_star),
                                 ("core identity RS", core1),
                                 ("core identity SR", core2)))


# ---------------------------------------------------------------------------
# bridge to the symbolic layer
# ---------------------------------------------------------------------------


def check_symbolic_consistency(s: float, *, samples: int = 1000,
                               seed: int = 0) -> NumericCheck:
    """The operator model must reproduce the symbolic (x, w) constants.

    The symbolic layer says x w = t^-1 w x with t = q^-4 (q = e^{2s}); the
    matching model takes the pair label (t^-1, t), which names the squares
    of a (p^2, q^2)-commuting pair: p^2 = t^-1, q^2 = t.  The check compares
    the model's commutation constants against the formally evaluated
    Laurent scalars q^{+-4}.
    """
    try:
        t = math.exp(-8.0 * s)
        if not (0.0 < t < math.inf and 1.0 / t < math.inf):
            raise OverflowError(f"t = exp(-8 s) = {t!r}")
        p, q = math.sqrt(1.0 / t), math.sqrt(t)
        model = build_pq_pair(p, q)
    except OverflowError as exc:
        raise ValueError(f"s={s!r} is outside the model's double-precision "
                         f"range ({exc})") from None
    kw = dict(samples=samples, seed=seed)
    r_ops = op_equal(compose(model.R, model.S),
                     compose(model.S, model.R).scaled(p * p), **kw)
    r_ops_star = op_equal(compose(model.R, adjoint(model.S)),
                          compose(adjoint(model.S), model.R).scaled(q * q), **kw)
    fwd = Scalar.q_power(4).eval(s)
    bwd = Scalar.q_power(-4).eval(s)
    r_fwd = abs(p * p - fwd) / max(1.0, abs(fwd))
    r_bwd = abs(q * q - bwd) / max(1.0, abs(bwd))
    return NumericCheck("symbolic consistency",
                        (("RS = p^2 SR", r_ops), ("RS* = q^2 S*R", r_ops_star),
                         ("p^2 = eval(q^4)", r_fwd),
                         ("q^2 = eval(q^-4)", r_bwd)))
