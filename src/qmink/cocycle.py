"""Numeric checks for the scalar 2-cocycle machinery on the additive group C.

The deforming cocycle is the unimodular bicharacter-type exponential

    psi(z1, z2) = exp(-i s Im(z1 * conj(z2))),       s real,

together with its companions: the mirror cocycle psi~ used on the second
shift leg, the auxiliary psi* entering the untwisting unitary, and the
quadratic phase omega that conjugates the Minkowski coordinates.  Each is
written once as an s-free real phase t, its value being exp(-i s t), so a
conjugated factor is a negated phase.  Each identity is declared once, as
data (`Identity`): the phases of each side's factors, as calls of the phase
functions, which a declaration looks up when it runs, so the checked code
is the shipped code.  Every identity is exact analytically (its phases sum
to the same polynomial on both sides); residuals are pure floating-point
noise and the default tolerance is 1e-12.

Sampling is seeded (stdlib Mersenne Twister, stable across platforms) and
the seed is part of every report; the cocycle suite draws one stream of disk
points that all three checks read.  Each check takes a sequence of
CocycleParams and returns one NumericCheck per entry, all on the same
samples, whose points are named as in its formula.  Per block of samples
it computes the phases once, then per s exponentiates each factor's column
and multiplies the columns in declaration order: the floating-point
expressions of a separate pass per s and per sample, so the residuals are
bit-identical to one.  Each residual names the points of the first sample
where its maximum is reached.
"""

import cmath
import math
import random
from collections import namedtuple
from functools import partial, reduce
from operator import add, mul, neg, sub

from .reports import NumericCheck, Residual, fold_max

# Samples per block of phase columns: columns of all 10^4 samples raised a
# report-all process's peak RSS by about 5 MB, blocks of 500 by nothing.
BLOCK = 500


class CocycleParams(namedtuple("CocycleParams", "s")):
    """Deformation parameter; finite real."""

    __slots__ = ()

    def __new__(cls, s: float):
        if not math.isfinite(s):
            raise ValueError(f"deformation parameter must be finite, not {s!r}")
        return super().__new__(cls, s)


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


def _exp_or_nan(z):
    """exp(z), or NaN where cmath.exp refuses an infinite imaginary part."""
    try:
        return cmath.exp(z)
    except ValueError:
        return complex(math.nan, math.nan)


def disk_points(rng: random.Random, n: int, radius: float):
    """n points uniformly distributed in the closed disk of the given radius."""
    pts = []
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        pts.append(cmath.rect(r, theta))
    return pts


class Identity(namedtuple("Identity", "name npoints labels phases")):
    """An identity between products of cocycle factors, declared once.

    phases(*points), on npoints points, gives for each part (labels order)
    the pair (lhs phases, rhs phases); a side is the product of exp(-i s t)
    over its phases t, in order.  The points may be complex numbers, or
    columns of them on which the phase arithmetic acts elementwise.
    """

    __slots__ = ()


# Declarations look the phase functions up when they run, not at import.
COCYCLE = Identity(
    "cocycle-identity", 3, ("psi", "psi_tilde"),
    lambda a, b, c: [((f(a, b), f(a + b, c)), (f(b, c), f(a, b + c)))
                     for f in (psi_phase, psi_tilde_phase)])

SUMUP = Identity(
    "sumup", 4, ("sumup",),
    lambda x, y, u, v: [(
        (psi_star_phase(x + u, y + v),),
        (psi_star_phase(x, y), psi_phase(x, u), psi_tilde_phase(y, v),
         psi_phase(-x - y, -v), -psi_phase(u, -x - y), psi_phase(u, v)))])

OMEGA = Identity(
    "omega-identity", 2, ("omega",),
    lambda z, w: [((omega_phase(z + w),),
                   (omega_phase(z), omega_phase(w), dual_phase(z, w)))])

IDENTITIES = (COCYCLE, SUMUP, OMEGA)


def _lift(op):
    return lambda *columns: _Column(map(op, *columns))


class _Column(list):
    """One value per sample, with the arithmetic of the phase functions
    applied elementwise, so a declaration runs once per block of samples."""

    __slots__ = ()
    __add__, __sub__, __mul__ = map(_lift, (add, sub, mul))
    __neg__, conjugate = map(_lift, (neg, complex.conjugate))
    real = property(lambda self: _Column([z.real for z in self]))
    imag = property(lambda self: _Column([z.imag for z in self]))

    def __rmul__(self, constant):
        return _Column([constant * t for t in self])


def _side(k, columns):
    """The column of exp(k t_1) exp(k t_2) ... over one side's phase columns.

    A finite phase t can still overflow k t to an infinite imaginary part;
    that factor is then NaN, so its residual is non-finite and fails."""
    exp = cmath.exp
    try:
        factors = [[exp(k * t) for t in col] for col in columns]
    except ValueError:
        factors = [[_exp_or_nan(k * t) for t in col] for col in columns]
    return reduce(partial(map, mul), factors)


def _identity_checks(identity, params, samples, seed, radius=2.0, points=None):
    """One NumericCheck per entry of params, all from one set of draws.

    Sample i is the points i*n ... i*n + n - 1 (n = identity.npoints) of
    disk_points(Random(seed), ..., radius), so checks of one seed and radius
    read prefixes of one stream; `points` is that stream when a caller has
    drawn it already.  Each part keeps its maximum and the points of the
    first sample attaining it, or its first NaN or inf (`fold_max`).
    """
    n = identity.npoints
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, not {radius!r}")
    if points is None:
        points = disk_points(random.Random(seed), samples * n, radius)
    if len(points) < samples * n:
        raise ValueError(f"{len(points)} points cannot make {samples} "
                         f"samples of {n}")
    ks = [-1j * p.s for p in params]
    folds = [[(0.0, 0)] * len(identity.labels) for _ in ks]
    for start in range(0, samples, BLOCK):
        stop = min(start + BLOCK, samples)
        parts = identity.phases(*(_Column(points[start * n + i:stop * n:n])
                                  for i in range(n)))
        for k, best in zip(ks, folds):
            for j, (lhs, rhs) in enumerate(parts):
                best[j] = fold_max(best[j], map(abs, map(
                    sub, _side(k, lhs), _side(k, rhs))), start)
    return [NumericCheck(identity.name, tuple(
                (label, Residual(r, tuple(points[at * n:(at + 1) * n])))
                for label, (r, at) in zip(identity.labels, best)))
            for best in folds]


def check_cocycle_identity(params, samples: int, seed: int,
                           radius: float = 2.0, points=None) -> list:
    """Residual of psi(a,b) psi(a+b,c) = psi(b,c) psi(a,b+c), for psi and psi~."""
    return _identity_checks(COCYCLE, params, samples, seed, radius, points)


def check_sumup(params, samples: int, seed: int, radius: float = 2.0,
                points=None) -> list:
    """Residual of the translation identity for psi*:

        psi*(x+u, y+v) = psi*(x,y) psi_u(x) psi~_v(y)
                         psi(-x-y, -v) conj(psi(u, -x-y)) psi(u, v),

    where the translation families are psi_u(x) = psi(x, u) and
    psi~_v(y) = psi~(y, v).

    The trailing constant factor psi(u, v) is forced: the other phases
    leave exactly the phase of psi(u, v) over, so without it the identity
    only holds up to a central constant, which is invisible to the
    twisting argument it supports but not to a pointwise check.
    """
    return _identity_checks(SUMUP, params, samples, seed, radius, points)


def check_omega_identity(params, samples: int, seed: int,
                         radius: float = 2.0, points=None) -> list:
    """Residual of omega(z+w) = omega(z) omega(w) exp(-i s Im(z w))."""
    return _identity_checks(OMEGA, params, samples, seed, radius, points)
