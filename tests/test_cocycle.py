"""Cocycle numerics: definitional values, unimodularity, the three identities.

A cocycle is shipped as its s-free real phase t, its value being
exp(-i s t).  Values are checked at the phase level, or against the o_*
oracle below, which spells each cocycle independently of qmink."""

import cmath
import json
import math
import random
import re

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmink import cocycle
from qmink.cocycle import (COCYCLE, OMEGA, SUMUP, CocycleParams,
                           check_cocycle_identity, check_omega_identity,
                           check_sumup, disk_points, dual_phase, omega_phase,
                           psi_phase, psi_star_phase, psi_tilde_phase)

S = CocycleParams(0.7)

complex_points = st.builds(complex, st.floats(-2, 2, allow_nan=False),
                           st.floats(-2, 2, allow_nan=False))


def value(phase, s, *points):
    """exp(-i s t) for a shipped phase t: the value the suite forms."""
    return cmath.exp(-1j * s * phase(*points))


def test_psi_on_equal_arguments_is_one():
    assert psi_phase(1.3 - 0.2j, 1.3 - 0.2j) == 0.0


def test_psi_at_one_and_i():
    # Im(1 * conj(i)) = -1, so psi = exp(+i s)
    assert psi_phase(1, 1j) == -1.0
    for s in (0.3, 0.7, 1.1):
        assert abs(value(psi_phase, s, 1, 1j) - cmath.exp(1j * s)) < 1e-15


def test_psi_without_deformation_is_one():
    assert value(psi_phase, 0.0, 0.3 + 1j, -2j) == 1.0


@settings(max_examples=50, deadline=None)
@given(complex_points, complex_points)
def test_psi_tilde_is_the_conjugate_here(z1, z2):
    assert psi_tilde_phase(z1, z2) == -psi_phase(z1, z2)
    assert value(psi_tilde_phase, S.s, z1, z2) == o_psi_tilde(S.s, z1, z2)


def test_psi_star_trivial_values():
    assert psi_star_phase(0, 0.4 + 2j) == 0.0
    z = 1.7 - 0.3j
    assert psi_star_phase(z, -z) == psi_phase(z, 0) == 0.0


def test_psi_star_definitional_value():
    # psi*(1, i) = conj(psi(1, -1-i)); Im(1 * conj(-1-i)) = 1 gives
    # psi(1, -1-i) = e^{-is}, hence psi*(1, i) = e^{+is}.
    assert psi_star_phase(1, 1j) == -psi_phase(1, -1 - 1j) == -1.0
    for s in (0.3, 0.7, 1.1):
        assert abs(value(psi_star_phase, s, 1, 1j) - cmath.exp(1j * s)) < 1e-15


@settings(max_examples=50, deadline=None)
@given(complex_points, complex_points)
def test_psi_star_matches_its_definition(z1, z2):
    assert value(psi_star_phase, S.s, z1, z2) == o_psi_star(S.s, z1, z2)


def test_omega_values():
    assert omega_phase(1.25) == 0.0  # real argument
    assert omega_phase(1 + 1j) == 1.0
    for s in (0.3, 0.7, 1.1):
        assert value(omega_phase, s, 1 + 1j) == o_omega(s, 1 + 1j)
        assert abs(value(omega_phase, s, 1 + 1j) - cmath.exp(-1j * s)) < 1e-15
    assert value(omega_phase, 0.0, 2 - 1j) == 1.0


@settings(max_examples=50, deadline=None)
@given(complex_points, complex_points)
def test_all_values_are_unimodular(z1, z2):
    for t in (psi_phase(z1, z2), psi_tilde_phase(z1, z2),
              psi_star_phase(z1, z2), omega_phase(z1), dual_phase(z1, z2)):
        assert isinstance(t, float) and math.isfinite(t)
        assert abs(abs(cmath.exp(-1j * S.s * t)) - 1.0) < 1e-15


@settings(max_examples=50, deadline=None)
@given(complex_points, complex_points, complex_points)
def test_psi_is_a_bicharacter_in_the_first_slot(z1, z1p, z2):
    lhs = psi_phase(z1 + z1p, z2)
    rhs = psi_phase(z1, z2) + psi_phase(z1p, z2)
    assert abs(lhs - rhs) < 1e-13


# -- identity checks ---------------------------------------------------------


def test_cocycle_identity_without_deformation_is_exact():
    (result,) = check_cocycle_identity([CocycleParams(0.0)], 100, 3)
    assert result.max_residual == 0.0


def test_cocycle_identity_at_scale():
    (result,) = check_cocycle_identity([CocycleParams(0.7)], 10000, 1)
    assert result.max_residual < 1e-12
    assert dict(result.parts).keys() == {"psi", "psi_tilde"}


def test_cocycle_identity_single_triple():
    for lhs, rhs in COCYCLE.phases(1, 1j, 1 - 1j):  # psi, then psi~
        assert sum(lhs) == sum(rhs) != 0


def test_sumup_with_zero_translation_is_exact():
    # u = v = 0: every factor on the right but psi*(x, y) has phase 0
    rng = random.Random(5)
    for x, y in zip(disk_points(rng, 50, 2.0), disk_points(rng, 50, 2.0)):
        ((lhs, rhs),) = SUMUP.phases(x, y, 0, 0)
        assert lhs == (psi_star_phase(x, y),) == rhs[:1]
        assert all(t == 0.0 for t in rhs[1:])


def test_sumup_without_deformation_is_exact():
    assert check_sumup([CocycleParams(0.0)], 200, 2)[0].max_residual == 0.0


def test_sumup_at_scale():
    assert check_sumup([CocycleParams(0.3)], 10000, 1)[0].max_residual < 1e-12


def test_sumup_requires_the_constant_factor():
    """Dropping the trailing psi(u, v) breaks the identity by |psi(u,v) - 1|:
    the factor is not an artifact of the implementation."""
    ((lhs, rhs),) = SUMUP.phases(0.0, 0.0, 1.0, 1j)  # x = y = 0, u = 1, v = i
    remainder = sum(lhs) - sum(rhs[:-1])
    assert remainder == rhs[-1] == psi_phase(1.0, 1j) != 0.0
    assert abs(cmath.exp(-0.7j * remainder) - 1) > 0.1


def test_omega_identity_trivial_cases():
    z = 0.8 - 0.1j
    ((lhs, rhs),) = OMEGA.phases(z, 0)
    assert lhs == (omega_phase(z),) == rhs[:1] and rhs[1:] == (0.0, 0.0)
    # both arguments real: all phases are exactly 0
    ((lhs, rhs),) = OMEGA.phases(1.5, 2.5)
    assert all(t == 0.0 for t in (*lhs, *rhs))


def test_omega_identity_at_scale():
    assert check_omega_identity([CocycleParams(1.1)], 10000, 1)[0].max_residual \
        < 1e-12


def test_checks_are_deterministic_for_a_seed():
    (a,) = check_sumup([CocycleParams(0.3)], 500, 42)
    (b,) = check_sumup([CocycleParams(0.3)], 500, 42)
    assert a.max_residual == b.max_residual
    (c,) = check_sumup([CocycleParams(0.3)], 500, 43)
    assert c.max_residual != a.max_residual  # overwhelmingly likely


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError):
        check_sumup([S], 0, 1)


def test_identity_residuals_across_the_parameter_range():
    # the invariants hold on |s| <= 2 with radius-2 samples
    for s in (-2.0, -0.5, 2.0):
        params = CocycleParams(s)
        assert check_cocycle_identity([params], 2000, 9)[0].max_residual < 1e-12
        assert check_sumup([params], 2000, 9)[0].max_residual < 1e-12
        assert check_omega_identity([params], 2000, 9)[0].max_residual < 1e-12


# -- all s values on one set of draws, against the per-s oracle ---------------
#
# The oracle below is the original loop: one pass over fresh draws per s and
# per identity, with its own sampler and cocycle formulas.  It shares no code
# with qmink.


def oracle_disk(rng, n, radius):
    pts = []
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        pts.append(cmath.rect(r, theta))
    return pts


def o_psi(s, z1, z2):
    return cmath.exp(-1j * s * (z1 * z2.conjugate()).imag)


def o_psi_tilde(s, z1, z2):
    return o_psi(s, -z1, -z2).conjugate()


def o_psi_star(s, z1, z2):
    return o_psi(s, z1, -z1 - z2).conjugate()


def o_omega(s, z):
    return cmath.exp(-0.5j * s * (z * z).imag)


def o_cocycle(s, f, a, b, c):
    return abs(f(s, a, b) * f(s, a + b, c) - f(s, b, c) * f(s, a, b + c))


def o_sumup(s, x, y, u, v):
    lhs = o_psi_star(s, x + u, y + v)
    rhs = (o_psi_star(s, x, y) * o_psi(s, x, u) * o_psi_tilde(s, y, v)
           * o_psi(s, -x - y, -v) * o_psi(s, u, -x - y).conjugate()
           * o_psi(s, u, v))
    return abs(lhs - rhs)


def o_omega_identity(s, z, w):
    return abs(o_omega(s, z + w) - o_omega(s, z) * o_omega(s, w)
               * cmath.exp(-1j * s * (z * w).imag))


ORACLE_PARTS = {
    "cocycle-identity": (3, {"psi": lambda s, *p: o_cocycle(s, o_psi, *p),
                             "psi_tilde": lambda s, *p: o_cocycle(
                                 s, o_psi_tilde, *p)}),
    "sumup": (4, {"sumup": o_sumup}),
    "omega-identity": (2, {"omega": o_omega_identity}),
}


def oracle_check(name, s, samples, seed, radius=2.0):
    """{part: (max residual, points of the first sample attaining it)}."""
    npoints, parts = ORACLE_PARTS[name]
    rng = random.Random(seed)
    worst = {}
    for k in range(samples):
        pts = tuple(oracle_disk(rng, npoints, radius))
        for label, f in parts.items():
            r = f(s, *pts)
            w, at = worst.get(label, (0.0, pts))
            worst[label] = (max(w, r), pts if r > w else at)
    return worst


S_LIST = (0.0, 0.3, -0.3, 1.1)
CHECKS = (check_cocycle_identity, check_sumup, check_omega_identity)


@pytest.mark.parametrize("samples", [1, 7, 500, 1037])  # 1037: three blocks
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_shared_draws_match_the_per_s_oracle(samples, seed):
    params = [CocycleParams(s) for s in S_LIST]
    for check in CHECKS:
        results = check(params, samples, seed)
        assert len(results) == len(S_LIST)
        for s, result in zip(S_LIST, results):
            want = oracle_check(result.name, s, samples, seed)
            got = dict(result.parts)
            assert list(got) == sorted(want)
            for label, (value, at) in want.items():
                assert got[label] == value
                assert got[label].at == at
            assert result.max_residual == max(v for v, _ in want.values())
            if s == 0.0:
                assert result.max_residual == 0.0


def test_shared_draws_match_the_oracle_on_another_radius():
    params = [CocycleParams(s) for s in (0.7, -2.0)]
    for check in CHECKS:
        for s, result in zip((0.7, -2.0), check(params, 50, 9, radius=0.5)):
            want = oracle_check(result.name, s, 50, 9, radius=0.5)
            assert {k: (v, v.at) for k, v in result.parts} == want


def test_checks_give_one_result_per_parameter_in_order():
    params = [CocycleParams(1.1), CocycleParams(0.3), CocycleParams(1.1)]
    for check in CHECKS:
        results = check(params, 20, 3)
        alone = [check([p], 20, 3)[0] for p in params]
        assert results == alone
        assert [[r.at for _, r in c.parts] for c in results] == \
            [[r.at for _, r in c.parts] for c in alone]
        assert results[0] == results[2] != results[1]
        assert check([], 20, 3) == []


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_radius_must_be_finite_and_positive(radius):
    for check in CHECKS:
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            check([S], 10, 1, radius=radius)


def test_failing_cocycle_check_names_a_replayable_worst_sample(capsys):
    from qmink.cli import main
    assert main(["check", "cocycle", "--tol", "1e-30", "--samples", "300",
                 "--seed", "4", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert len(checks) == 12
    replay = {"cocycle-identity[psi]": lambda s, a, b, c: o_cocycle(
                  s, o_psi, a, b, c),
              "cocycle-identity[psi_tilde]": lambda s, a, b, c: o_cocycle(
                  s, o_psi_tilde, a, b, c),
              "sumup[sumup]": o_sumup,
              "omega-identity[omega]": o_omega_identity}
    for check in checks:
        name, s = re.fullmatch(r"(\S+) \(s=(\S+)\)", check["name"]).groups()
        assert check["status"] == "fail"
        inner = re.fullmatch(r"worst at \((.*)\)", check["detail"]).group(1)
        points = [complex(t) for t in inner.split(", ")]
        assert replay[name](float(s), *points) == check["residual"]


def test_passing_cocycle_checks_carry_no_detail(capsys):
    from qmink.cli import main
    assert main(["check", "cocycle", "--samples", "300", "--format",
                 "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert all("detail" not in c for c in checks)


def test_a_shared_stream_gives_the_separate_draws_results():
    params = [CocycleParams(s) for s in (0.3, -1.1)]
    for samples in (300, 1037):  # one block of samples, and three
        points = disk_points(random.Random(5), 4 * samples, 2.0)
        for check in CHECKS:
            alone = check(params, samples, 5)
            shared = check(params, samples, 5, points=points)
            assert shared == alone
            assert [[(r, r.at) for _, r in c.parts] for c in shared] == \
                [[(r, r.at) for _, r in c.parts] for c in alone]
            with pytest.raises(ValueError,
                               match=f"cannot make {samples + 1} samples"):
                check(params, samples + 1, 5,
                      points=points[:2 * (samples + 1) - 1])


def test_a_non_finite_residual_is_kept_with_its_first_sample():
    from qmink.cocycle import Identity, _identity_checks
    from qmink.suites import DEFAULT_TOL, _residual_check

    def phases(zs):  # NaN inside the unit disk, else 0 or 1 by sign
        return [([[float(z.real > 0) if abs(z) > 1.0 else math.nan
                   for z in zs]], [[0.0] * len(zs)])]

    pts = disk_points(random.Random(2), 40, 2.0)
    (check,) = _identity_checks(Identity("probe", 1, ("probe",), phases),
                                [S], 40, 2)
    first = next(z for z in pts if abs(z) <= 1.0)
    (_, r), = check.parts
    assert r != r and r.at == (first,) and check.max_residual != 0.0
    result = _residual_check("probe", check.max_residual, DEFAULT_TOL)
    assert not result.passed
    assert result.detail == f"first non-finite at ({first!r})"


# -- the fold across blocks of samples -----------------------------------------


def probe_identity(phase_at):
    """A one-point identity whose lhs phase is phase_at[point] (else 0) and
    whose rhs is 1, so sample i's residual is |exp(-i s t_i) - 1|."""
    from qmink.cocycle import Identity
    return Identity("probe", 1, ("probe",), lambda zs: [
        ([[phase_at.get(z, 0.0) for z in zs]], [[0.0] * len(zs)])])


def probe_worst(phase_at, samples=1200, seed=3):
    from qmink.cocycle import BLOCK, _identity_checks
    assert samples > 2 * BLOCK
    (check,) = _identity_checks(probe_identity(phase_at), [S], samples, seed)
    (_, r), = check.parts
    return r


def test_a_tie_in_a_later_block_keeps_the_earlier_sample():
    from qmink.cocycle import BLOCK
    pts = disk_points(random.Random(3), 1200, 2.0)
    early, late = pts[BLOCK - 1], pts[2 * BLOCK + 7]
    r = probe_worst({early: 1.0, late: 1.0})
    assert r == abs(cmath.exp(-0.7j) - 1) and r.at == (early,)
    r = probe_worst({early: 1.0, late: 2.0})
    assert r == abs(cmath.exp(-1.4j) - 1) and r.at == (late,)


def test_the_first_nan_wins_for_good_across_blocks():
    from qmink.cocycle import BLOCK
    pts = disk_points(random.Random(3), 1200, 2.0)
    big, nan_at, later = pts[3], pts[BLOCK + 11], pts[2 * BLOCK + 1]
    r = probe_worst({big: 2.0, nan_at: math.nan, later: math.nan})
    assert r != r and r.at == (nan_at,)
    r = probe_worst({nan_at: math.nan, later: 2.0})
    assert r != r and r.at == (nan_at,)


# -- the exact phase certificate ------------------------------------------------
#
# Every factor is exp(-i s t) for a phase t that is a real polynomial in the
# points' coordinates, so an identity holds for all s at once exactly when
# its lhs phases and rhs phases sum to the same polynomial.  The declared
# identities are evaluated on symbolic points to check that.


class Poly:
    """A real polynomial with Fraction coefficients: {monomial: coefficient},
    a monomial being the sorted tuple of its variables."""

    def __init__(self, terms=()):
        self.terms = {m: c for m, c in dict(terms).items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, Poly):  # an exact constant such as 0.5
            return Poly({m: Fraction(other) * c for m, c in self.terms.items()})
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == other.terms


class Point:
    """A symbolic complex point re + i im with Poly components."""

    def __init__(self, re, im):
        self.real, self.imag = re, im

    def __add__(self, other):
        return Point(self.real + other.real, self.imag + other.imag)

    def __neg__(self):
        return Point(-self.real, -self.imag)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return Point(self.real * other.real - self.imag * other.imag,
                     self.real * other.imag + self.imag * other.real)

    def conjugate(self):
        return Point(self.real, -self.imag)


ZERO = Poly()


def symbolic_points(n):
    return [Point(Poly({(f"x{i}",): 1}), Poly({(f"y{i}",): 1}))
            for i in range(n)]


def phase_defects(identity):
    """Per part, the sum of the lhs phases minus the sum of the rhs phases."""
    return [sum(lhs, ZERO) - sum(rhs, ZERO)
            for lhs, rhs in identity.phases(*symbolic_points(identity.npoints))]


def test_every_declared_identity_has_an_exact_phase_certificate():
    from qmink.cocycle import IDENTITIES
    assert [i.name for i in IDENTITIES] == ["cocycle-identity", "sumup",
                                            "omega-identity"]
    for identity in IDENTITIES:
        parts = identity.phases(*symbolic_points(identity.npoints))
        assert len(parts) == len(identity.labels)
        for lhs, rhs in parts:  # nothing cancels trivially
            assert sum(lhs, ZERO) != ZERO
            assert all(t != ZERO for t in (*lhs, *rhs))
        assert phase_defects(identity) == [ZERO] * len(identity.labels)


def test_the_sumup_constant_factor_is_forced():
    """With psi(u, v) dropped, the other phases leave exactly the phase of
    psi(u, v): the identity needs its trailing constant."""
    from qmink.cocycle import SUMUP, psi_phase
    x, y, u, v = symbolic_points(4)
    ((lhs, rhs),) = SUMUP.phases(x, y, u, v)
    remainder = sum(lhs, ZERO) - sum(rhs[:-1], ZERO)
    assert remainder == psi_phase(u, v) and remainder != ZERO


# -- the checked code is the shipped code ----------------------------------------


MUTANTS = {
    "psi_phase": lambda z1, z2: (z1 * z2).real,
    "psi_star_phase": lambda z1, z2: -cocycle.psi_phase(z1, z1 + z2),
    "omega_phase": lambda z: (z * z).imag,
    "dual_phase": lambda z1, z2: (z1 * z2.conjugate()).imag,
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_broken_phase_fails_the_suite_and_the_certificate(name, monkeypatch,
                                                             capsys):
    from qmink.cli import main
    monkeypatch.setattr(cocycle, name, MUTANTS[name])
    assert main(["check", "cocycle", "--samples", "200"]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
    assert any(d != ZERO for identity in cocycle.IDENTITIES
               for d in phase_defects(identity))
