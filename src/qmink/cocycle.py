"""Numeric checks for the scalar 2-cocycle machinery on the additive group C.

The deforming cocycle is the unimodular bicharacter-type exponential

    psi(z1, z2) = exp(-i s Im(z1 * conj(z2))),       s real,

together with its companions: the mirror cocycle psi~ used on the second
shift leg, the auxiliary psi* entering the untwisting unitary, and the
quadratic phase omega that conjugates the Minkowski coordinates.  All are
evaluated in double precision; every identity here is exact analytically,
so residuals are pure floating-point noise and the default tolerance is
1e-12.

Sampling is seeded (stdlib Mersenne Twister, stable across platforms) and
the seed is part of every report.  The checks of one seed and radius read
their samples from one stream of disk points, which the cocycle suite draws
once for all three.  Each identity check takes a sequence of parameters and
evaluates its samples once for all of them: the products and
imaginary parts that do not depend on s are computed once per sample, and
the factor -i s once per s.  Every value is the same floating-point
expression, in the same order, as a separate pass per s would evaluate, so
the residuals are bit-identical to it.  Each residual names the points of
the first sample where its maximum is reached.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from itertools import islice

from .reports import Residual, worst_of


@dataclass(frozen=True)
class CocycleParams:
    """Deformation parameter; finite real."""

    s: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError(f"deformation parameter must be finite, not {self.s!r}")


def dual_pairing(z1: complex, z2: complex) -> complex:
    """The self-duality bicharacter of the additive group C: exp(i Im(z1 z2)).

    This is the pairing under which the group is identified with its dual;
    the shift-family exponents and the weight metadata of the symbolic layer
    are expressed against it.
    """
    return cmath.exp(1j * (z1 * z2).imag)


def psi(params: CocycleParams, z1: complex, z2: complex) -> complex:
    return cmath.exp(-1j * params.s * (z1 * z2.conjugate()).imag)


def psi_tilde(params: CocycleParams, z1: complex, z2: complex) -> complex:
    """conj(psi(-z1, -z2)); for this psi it equals conj(psi(z1, z2))."""
    return psi(params, -z1, -z2).conjugate()


def psi_star(params: CocycleParams, z1: complex, z2: complex) -> complex:
    """conj(psi(z1, -z1 - z2)); for this psi it coincides with psi itself."""
    return psi(params, z1, -z1 - z2).conjugate()


def omega(params: CocycleParams, z: complex) -> complex:
    return cmath.exp(-0.5j * params.s * (z * z).imag)


def disk_points(rng: random.Random, n: int, radius: float):
    """n points uniformly distributed in the closed disk of the given radius."""
    pts = []
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        pts.append(cmath.rect(r, theta))
    return pts


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    s: float
    samples: int
    seed: int
    radius: float
    max_residual: float
    parts: tuple  # (label, Residual) pairs

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_residual < tol


def _identity_checks(name, labels, params, factor, residuals, npoints,
                     samples, seed, radius, points):
    """One IdentityCheck per entry of params, all from one set of draws.

    factor(s) gives the constants of one s (such as -1j * s), computed once.
    Sample i is the points i*npoints ... i*npoints + npoints - 1 of
    disk_points(Random(seed), ..., radius), so checks of one seed and radius
    read prefixes of one stream; `points` is that stream when a caller has
    drawn it already.  residuals(factors, *sample) returns the residual of
    every part (labels order) for every entry of factors in turn, as one
    flat list.  Each part keeps its maximum and the points of the first
    sample attaining it; the first NaN or inf is kept instead, so it fails.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, not {radius!r}")
    if points is None:
        points = disk_points(random.Random(seed), samples * npoints, radius)
    if len(points) < samples * npoints:
        raise ValueError(f"{len(points)} points cannot make {samples} "
                         f"samples of {npoints}")
    params = tuple(params)
    factors = [factor(p.s) for p in params]
    worst = [0.0] * (len(labels) * len(params))
    at = [tuple(points[:npoints])] * len(worst)
    for pts in islice(zip(*[iter(points)] * npoints), samples):
        for j, r in enumerate(residuals(factors, *pts)):
            # as max(worst, r), so the first maximal sample, or the first NaN
            if (r > worst[j] or r != r) and math.isfinite(worst[j]):
                worst[j], at[j] = r, pts
    checks = []
    for k, p in enumerate(params):
        part = slice(k * len(labels), (k + 1) * len(labels))
        checks.append(IdentityCheck(
            name, p.s, samples, seed, radius, worst_of(worst[part]),
            tuple(sorted((label, Residual(r, tuple(pt))) for label, r, pt
                         in zip(labels, worst[part], at[part])))))
    return checks


def _cocycle_residuals(ks, a, b, c):
    """psi(a,b) psi(a+b,c) - psi(b,c) psi(a,b+c), then the same for psi~."""
    ab, bc = a + b, b + c
    na, nb, nc = -a, -b, -c
    i1 = (a * b.conjugate()).imag
    i2 = (ab * c.conjugate()).imag
    i3 = (b * c.conjugate()).imag
    i4 = (a * bc.conjugate()).imag
    t1 = (na * nb.conjugate()).imag
    t2 = ((-ab) * nc.conjugate()).imag
    t3 = (nb * nc.conjugate()).imag
    t4 = (na * (-bc).conjugate()).imag
    exp = cmath.exp
    out = []
    for k in ks:
        lhs = exp(k * i1) * exp(k * i2)
        rhs = exp(k * i3) * exp(k * i4)
        lhs_t = exp(k * t1).conjugate() * exp(k * t2).conjugate()
        rhs_t = exp(k * t3).conjugate() * exp(k * t4).conjugate()
        out.append(abs(lhs - rhs))
        out.append(abs(lhs_t - rhs_t))
    return out


def check_cocycle_identity(params, samples: int, seed: int,
                           radius: float = 2.0, points=None) -> list:
    """Residual of psi(a,b) psi(a+b,c) = psi(b,c) psi(a,b+c), for psi and psi~.

    params is a sequence of CocycleParams; the result has one IdentityCheck
    per entry, each evaluated on the same seeded triples (a, b, c).
    """
    return _identity_checks("cocycle-identity", ("psi", "psi_tilde"), params,
                            lambda s: -1j * s, _cocycle_residuals,
                            3, samples, seed, radius, points)


def _sumup_residuals(ks, x, y, u, v):
    """The sumup identity's two sides, factor by factor as in check_sumup."""
    z1, z2 = x + u, y + v
    nxy, nv = -x - y, -v
    i1 = (z1 * (-z1 - z2).conjugate()).imag
    i2 = (x * nxy.conjugate()).imag
    i3 = (x * u.conjugate()).imag
    i4 = ((-y) * nv.conjugate()).imag
    i5 = (nxy * nv.conjugate()).imag
    i6 = (u * nxy.conjugate()).imag
    i7 = (u * v.conjugate()).imag
    exp = cmath.exp
    return [abs(exp(k * i1).conjugate()
                - exp(k * i2).conjugate() * exp(k * i3) * exp(k * i4).conjugate()
                * exp(k * i5) * exp(k * i6).conjugate() * exp(k * i7))
            for k in ks]


def check_sumup(params, samples: int, seed: int, radius: float = 2.0,
                points=None) -> list:
    """Residual of the translation identity for psi*:

        psi*(x+u, y+v) = psi*(x,y) psi_u(x) psi~_v(y)
                         psi(-x-y, -v) conj(psi(u, -x-y)) psi(u, v),

    where the translation families are psi_u(x) = psi(x, u) and
    psi~_v(y) = psi~(y, v).

    The trailing constant factor psi(u, v) is forced: at x = y = 0 the left
    side is psi*(u, v) = psi(u, v) while every non-constant factor on the
    right is 1.  Without it the identity only holds up to a central
    constant, which is invisible to the twisting argument it supports but
    not to a pointwise check.

    params is a sequence of CocycleParams; the result has one IdentityCheck
    per entry, each evaluated on the same seeded points (x, y, u, v).
    """
    return _identity_checks("sumup", ("sumup",), params,
                            lambda s: -1j * s, _sumup_residuals,
                            4, samples, seed, radius, points)


def _omega_residuals(factors, z, w):
    """omega(z+w) - omega(z) omega(w) exp(-i s Im(z w))."""
    zw = z + w
    i1 = (zw * zw).imag
    i2 = (z * z).imag
    i3 = (w * w).imag
    i4 = (z * w).imag
    exp = cmath.exp
    return [abs(exp(h * i1) - exp(h * i2) * exp(h * i3) * exp(k * i4))
            for h, k in factors]


def check_omega_identity(params, samples: int, seed: int,
                         radius: float = 2.0, points=None) -> list:
    """Residual of omega(z+w) = omega(z) omega(w) exp(-i s Im(z w)).

    params is a sequence of CocycleParams; the result has one IdentityCheck
    per entry, each evaluated on the same seeded pairs (z, w).
    """
    return _identity_checks("omega-identity", ("omega",), params,
                            lambda s: (-0.5j * s, -1j * s),
                            _omega_residuals, 2, samples, seed, radius, points)
