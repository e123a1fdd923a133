"""Exact scalar ring: examples, ring axioms, and the numeric bridge."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmink.scalars import (GR_I, GR_ONE, GR_ZERO, ONE, ZERO,
                           EvalOverflowError, GaussianRational, Scalar)

Q = Scalar.q_power


def test_additive_inverse_cancels():
    assert (Q(2) + (-Q(2))).is_zero()


def test_disjoint_exponents_merge():
    s = ONE + Q(-4)
    assert s.terms == {-4: GR_ONE, 0: GR_ONE}


def test_imaginary_parts_cancel():
    one_plus_i = Scalar.of(GaussianRational.of(1, 1), 1)
    one_minus_i = Scalar.of(GaussianRational.of(1, -1), 1)
    assert one_plus_i + one_minus_i == Scalar.of(2, 1)


def test_exponents_add_under_multiplication():
    assert Q(2) * Q(-4) == Q(-2)


def test_i_squared_is_minus_one():
    i = Scalar.imag_unit()
    assert i * i == Scalar.of(-1)


def test_t_times_t_inverse_is_one():
    t = Q(-4)
    assert t * t.inverse() == ONE
    assert t.inverse() == Q(4)


def test_star_conjugates_coefficients():
    iq = Scalar.imag_unit() * Q(1)
    assert iq.star() == -iq
    assert Q(-4).star() == Q(-4)


@given(st.integers(-8, 8), st.integers(-3, 3), st.integers(-3, 3))
def test_star_is_an_involution(k, re, im):
    s = Scalar.of(GaussianRational.of(re, im), k)
    assert s.star().star() == s


def test_eval_at_zero():
    assert Q(-4).eval(0.0) == 1.0
    assert ZERO.eval(0.37) == 0.0


def test_eval_q_at_half_matches_high_precision_exponential():
    # oracle: e = exp(2 * 0.5 * 1) computed at 50 digits, rounded to double
    with mpmath.workdps(50):
        expected = float(mpmath.exp(1))
    assert Q(1).eval(0.5) == pytest.approx(expected, rel=0, abs=1e-15)


def test_eval_overflow_is_an_error():
    with pytest.raises(EvalOverflowError):
        Q(1000).eval(10.0)


def test_non_unit_scalar_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        (ONE + Q(2)).inverse()


def test_rendering():
    assert str(Q(-4)) == "q^-4"
    assert str(Scalar.of(2, 1)) == "2*q"
    assert str(ONE + Q(-4)) == "q^-4 + 1"
    assert str(Scalar.of(GaussianRational.of(1, 1), 2)) == "(1+i)*q^2"
    assert str(-Q(3)) == "-q^3"
    assert str(ZERO) == "0"
    assert str(Scalar.of(Fraction(3, 4))) == "3/4"


# -- ring axioms ------------------------------------------------------------

small_fractions = st.builds(Fraction, st.integers(-50, 50),
                            st.integers(1, 9))
coeffs = st.builds(GaussianRational.of, small_fractions, small_fractions)
scalars = st.dictionaries(st.integers(-5, 5), coeffs, max_size=4).map(Scalar)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_star_is_ring_automorphism(a, b):
    assert (a + b).star() == a.star() + b.star()
    assert (a * b).star() == a.star() * b.star()
    assert Q(1).star() == Q(1)  # q is fixed


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, st.floats(-1.0, 1.0, allow_nan=False))
def test_eval_is_ring_homomorphism(a, b, s):
    scale = max(1.0, abs(a.eval(s)), abs(b.eval(s)))
    assert abs((a + b).eval(s) - (a.eval(s) + b.eval(s))) <= 1e-13 * scale
    assert abs((a * b).eval(s) - a.eval(s) * b.eval(s)) <= 1e-13 * scale * scale


# -- differential check against a Fraction-only reference ---------------------
#
# The reference holds a scalar as {exponent: (re, im)} with Fraction
# components and no zero entries; the scalars under test keep integral
# components as int.  Both must agree value for value, and the int-backed
# results must render, compare and hash like the same value held as
# Fractions throughout.

rationals = st.one_of(st.integers(-6, 6),
                      st.fractions(min_value=-6, max_value=6, max_denominator=6))
raw_scalars = st.dictionaries(st.integers(-4, 4), st.tuples(rationals, rationals),
                              max_size=3)
ZERO_PAIR = (Fraction(0), Fraction(0))


def ref_of(raw):
    return {k: (Fraction(re), Fraction(im)) for k, (re, im) in raw.items()
            if re or im}


def ref_add(a, b):
    out = dict(a)
    for k, (re, im) in b.items():
        r0, i0 = out.get(k, ZERO_PAIR)
        out[k] = (r0 + re, i0 + im)
    return {k: v for k, v in out.items() if v != ZERO_PAIR}


def ref_mul(a, b):
    out = {}
    for k1, (r1, i1) in a.items():
        for k2, (r2, i2) in b.items():
            r0, i0 = out.get(k1 + k2, ZERO_PAIR)
            out[k1 + k2] = (r0 + r1 * r2 - i1 * i2, i0 + r1 * i2 + i1 * r2)
    return {k: v for k, v in out.items() if v != ZERO_PAIR}


def ref_neg(a):
    return {k: (-re, -im) for k, (re, im) in a.items()}


def ref_star(a):
    return {k: (re, -im) for k, (re, im) in a.items()}


def ref_inverse(a):
    ((k, (re, im)),) = a.items()
    n = re * re + im * im
    return {-k: (re / n, -im / n)}


def scalar_of(ref):
    return Scalar({k: GaussianRational.of(re, im) for k, (re, im) in ref.items()})


def assert_matches(got, ref):
    assert {k: (Fraction(c.re), Fraction(c.im))
            for k, c in got.terms.items()} == ref
    for c in got.terms.values():
        for part in (c.re, c.im):
            integral = Fraction(part).denominator == 1
            assert type(part) is (int if integral else Fraction)
    as_fractions = Scalar({k: GaussianRational(re, im) for k, (re, im) in ref.items()})
    assert got == as_fractions
    assert hash(got) == hash(as_fractions)
    assert str(got) == str(as_fractions)


@settings(max_examples=200, deadline=None)
@given(raw_scalars, raw_scalars)
def test_ring_operations_match_fraction_reference(x, y):
    a, b = ref_of(x), ref_of(y)
    sa, sb = scalar_of(a), scalar_of(b)
    assert_matches(sa, a)
    assert_matches(sa + sb, ref_add(a, b))
    assert_matches(sa - sb, ref_add(a, ref_neg(b)))
    assert_matches(sa * sb, ref_mul(a, b))
    assert_matches(-sa, ref_neg(a))
    assert_matches(sa.star(), ref_star(a))


@settings(max_examples=200, deadline=None)
@given(st.integers(-6, 6), rationals, rationals)
def test_inverse_matches_fraction_reference(k, re, im):
    assume(re or im)
    a = ref_of({k: (re, im)})
    assert_matches(scalar_of(a).inverse(), ref_inverse(a))


def test_integral_components_are_ints():
    assert type(GaussianRational.of(Fraction(6, 3)).re) is int
    assert type(GaussianRational.of("4/2", "-3").im) is int
    assert type(GaussianRational.of(Fraction(1, 2)).re) is Fraction
    for c in (GR_ZERO, GR_ONE, GR_I):
        assert type(c.re) is int and type(c.im) is int
    half = GaussianRational.of(Fraction(1, 2))
    assert type((half + half).re) is int
    assert type(GaussianRational.of(2).inverse().re) is Fraction
    assert type(GaussianRational.of(-1).inverse().re) is int


def test_the_inverse_of_a_unit_of_the_gaussian_integers_stays_integral():
    for unit in (GR_ONE, -GR_ONE, GR_I, -GR_I):
        inverse = unit.inverse()
        assert inverse * unit == GR_ONE
        assert type(inverse.re) is int and type(inverse.im) is int
    for k in (-4, 1, 4):
        inverse = (-Q(k)).inverse()
        assert inverse == -Q(-k)
        ((_, c),) = inverse.terms.items()
        assert type(c.re) is int and type(c.im) is int


def test_a_gaussian_rational_is_a_value():
    half = GaussianRational.of(Fraction(1, 2), -3)
    assert half == GaussianRational(Fraction(1, 2), -3) != GaussianRational(1, -3)
    assert hash(half) == hash(GaussianRational.of("1/2", "-3"))
    assert repr(half) == "GaussianRational(re=Fraction(1, 2), im=-3)"
    assert half != (Fraction(1, 2), -3)
