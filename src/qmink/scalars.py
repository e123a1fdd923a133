"""Exact coefficient arithmetic for the symbolic engine.

Scalars are Laurent polynomials in a single formal unit q with Gaussian
rational coefficients.  Numerically q stands for e^{2s} (s the deformation
parameter), so every deformation constant occurring in the builtin algebras
is an integer power of q; in particular t = e^{-8s} = q^-4.  q is a formal
*positive real* unit, so the star operation conjugates coefficients and
fixes q.

All arithmetic is exact.  A rational component is held as a plain `int`
when it is integral and as a `fractions.Fraction` only when its denominator
is not 1; every operation returns components in that canonical form, so the
builtin coefficients (1, q^4, q^-4, ...) never pay for `Fraction`
arithmetic, and `fractions` is imported only when a non-integral rational
first appears (inverting a unit of Z[i], as star closure does with +-q^k,
needs none).  Both types are arbitrary precision, compare and hash alike
(`3 == Fraction(3)`), and render alike.  The only lossy operation is the
explicit bridge `Scalar.eval(s)` into complex doubles.

The cocycles' s-free real phases (`psi_phase`, ...; `cocycle` checks them)
live here because `ncalg.twist` reads psi and psi~ too, as exponents of q.
"""

import math


class EvalOverflowError(ArithmeticError):
    """Raised when Scalar.eval would overflow a double; never silently saturated."""


def _fr(value):
    """Canonical exact rational: an `int` when integral, else a `Fraction`."""
    if isinstance(value, int):
        return int(value)
    from fractions import Fraction
    if isinstance(value, (Fraction, str)):
        return _canon(Fraction(value))
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


def _canon(x):
    """Collapse a `Fraction` with denominator 1 back to `int`."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


class GaussianRational:
    """An element re + im*i of Q(i), held exactly (components int or Fraction)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __eq__(self, other):
        return (isinstance(other, GaussianRational)
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(_fr(re), _fr(im))

    def __add__(self, other):
        return GaussianRational(_canon(self.re + other.re),
                                _canon(self.im + other.im))

    def __sub__(self, other):
        return GaussianRational(_canon(self.re - other.re),
                                _canon(self.im - other.im))

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return GaussianRational(_canon(a * c), 0)
        return GaussianRational(_canon(a * c - b * d), _canon(a * d + b * c))

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        if n == 1:  # a unit of Z[i]: its inverse is its conjugate
            return self.conjugate()
        from fractions import Fraction
        n = Fraction(n)
        return GaussianRational(_canon(self.re / n), _canon(-self.im / n))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}*i"
        if self.re == 0:
            return imag
        sign = "-" if imag.startswith("-") else "+"
        return f"({self.re}{sign}{imag.lstrip('-')})"


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


class Scalar:
    """A Laurent polynomial sum_k c_k q^k with Gaussian rational c_k.

    Instances are immutable; every operation returns a fresh canonical
    value (no stored zero coefficients).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(c, GaussianRational):
                    c = GaussianRational.of(c)
                if not c.is_zero():
                    canon[int(k)] = c
        object.__setattr__(self, "_terms", canon)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value, exponent: int = 0) -> "Scalar":
        """Scalar c * q^exponent for a rational/Gaussian-rational c."""
        if isinstance(value, GaussianRational):
            return Scalar({exponent: value})
        return Scalar({exponent: GaussianRational.of(value)})

    @staticmethod
    def q_power(k: int) -> "Scalar":
        return Scalar({k: GR_ONE})

    @staticmethod
    def imag_unit() -> "Scalar":
        return Scalar({0: GR_I})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Exponent -> coefficient, sorted by exponent."""
        return {k: self._terms[k] for k in sorted(self._terms)}

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: GR_ONE}

    def is_unit(self) -> bool:
        """True iff invertible in the Laurent ring (a single monomial)."""
        return len(self._terms) == 1

    def __eq__(self, other):
        return isinstance(other, Scalar) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        terms = dict(self._terms)
        for k, c in other._terms.items():
            acc = terms.get(k)
            if acc is None:
                terms[k] = c
            else:
                total = acc + c
                if total.is_zero():
                    del terms[k]
                else:
                    terms[k] = total
        return _scalar(terms)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return _scalar({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "Scalar") -> "Scalar":
        # the shared unit returns the other factor itself, so products with
        # it allocate nothing and results share their coefficient objects
        if self is ONE:
            return other
        if other is ONE:
            return self
        a, b = self._terms, other._terms
        if len(a) == 1 or len(b) == 1:
            # a monomial factor sends distinct exponents to distinct ones,
            # and Q(i) has no zero divisors: nothing merges or cancels
            return _scalar({k1 + k2: c1 * c2
                            for k1, c1 in a.items() for k2, c2 in b.items()})
        terms = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                p = c1 * c2
                acc = terms.get(k)
                terms[k] = p if acc is None else acc + p
        return _scalar({k: c for k, c in terms.items() if not c.is_zero()})

    def star(self) -> "Scalar":
        """Complex conjugation; q is a formal positive real, hence fixed."""
        return _scalar({k: c.conjugate() for k, c in self._terms.items()})

    def inverse(self) -> "Scalar":
        if not self.is_unit():
            raise ZeroDivisionError(
                f"scalar {self} is not invertible in the Laurent ring"
            )
        ((k, c),) = self._terms.items()
        return Scalar({-k: c.inverse()})

    # -- bridges -------------------------------------------------------------

    def eval(self, s: float) -> complex:
        """Numeric value with q = e^{2s}, in complex double precision."""
        if not math.isfinite(s):
            raise ValueError("deformation parameter must be finite")
        total = 0j
        for k, c in self._terms.items():
            try:
                factor = math.exp(2.0 * s * k)
            except OverflowError as exc:
                raise EvalOverflowError(
                    f"q^{k} overflows at s={s} (exponent {2.0 * s * k})"
                ) from exc
            if factor != 0.0 and math.isinf(factor):
                raise EvalOverflowError(f"q^{k} overflows at s={s}")
            total += complex(c) * factor
        return total

    def subs_q_one(self) -> GaussianRational:
        """Exact classical limit q -> 1 (collapse all exponents)."""
        return sum(self._terms.values(), GR_ZERO)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        return join_terms([_render_monomial(self._terms[k], k)
                           for k in sorted(self._terms)])

    def __repr__(self):
        return f"Scalar({self})"


def _scalar(terms: dict) -> Scalar:
    """Wrap a dict that is already canonical (int keys, nonzero values)."""
    out = object.__new__(Scalar)
    object.__setattr__(out, "_terms", terms)
    return out


def join_terms(parts) -> str:
    """Rendered terms as a sum: a term's leading '-' becomes the operator."""
    return parts[0] + "".join(f" - {part[1:]}" if part.startswith("-")
                              else f" + {part}" for part in parts[1:])


def _render_monomial(coeff: GaussianRational, k: int) -> str:
    if k == 0:
        return str(coeff)
    qpart = "q" if k == 1 else f"q^{k}"
    if coeff == GR_ONE:
        return qpart
    if coeff == -GR_ONE:
        return "-" + qpart
    return f"{coeff}*{qpart}"


def psi_phase(z1, z2):
    return (z1 * z2.conjugate()).imag


def psi_tilde_phase(z1, z2):
    """psi~(z1, z2) = conj(psi(-z1, -z2)); for this psi it is conj(psi(z1, z2))."""
    return -psi_phase(-z1, -z2)


def psi_star_phase(z1, z2):
    """psi*(z1, z2) = conj(psi(z1, -z1 - z2)); for this psi it is psi itself."""
    return -psi_phase(z1, -z1 - z2)


def omega_phase(z):
    return 0.5 * (z * z).imag


def dual_phase(z1, z2):
    return (z1 * z2).imag


ONE = Scalar({0: GR_ONE})
ZERO = Scalar()
