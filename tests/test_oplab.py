"""Operator lab: atom algebra, z-transforms, the (p,q) model, and its identities."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmink.oplab import (ONE_EXPR, ZERO, Add, Const, Div, ExpLin, Mul,
                         PositivityError, ShiftMultiplierOperator, Sqrt,
                         adjoint, build_Q,
                         build_pq_pair, check_QQstar, check_def_mu2,
                         check_symbolic_consistency, check_twrs, compose,
                         defect_sqrt, op_equal, op_norm_sample, shared_samples,
                         z_transform)
from qmink.reports import worst_of

PAIRS = ((1.0, 1.0), (2.0, 3.0), (0.5, math.e))
IDENTITY = ShiftMultiplierOperator.multiplier(ONE_EXPR)


def gaussian_bump(cx: float = 0.0, cy: float = 0.0, width: float = 1.0):
    """A closed-form test function for vector-level checks."""

    def bump(x, y):
        return math.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width * width))

    return bump


def apply(op, func, point):
    """(A phi)(point) for an operator A = op and a function phi = func, summed
    atom by atom: the pointwise oracle for the sampled `op_equal`."""
    x, y = point
    return sum((f(x, y) * func(x - dx, y - dy) for (dx, dy), f in op.atoms.items()),
               0j)


class SampledFunction:
    """A function known on finitely many points; evaluating elsewhere errors."""

    def __init__(self, values):
        self._values = {(float(x), float(y)): complex(v)
                        for (x, y), v in dict(values).items()}

    def __call__(self, x, y):
        try:
            return self._values[(x, y)]
        except KeyError:
            raise KeyError(f"function not sampled at ({x}, {y})") from None


def test_model_parameters():
    m = build_pq_pair(2.0, 3.0)
    assert m.a == math.log(2.0 / 3.0)
    assert m.c == -math.log(6.0)
    m1 = build_pq_pair(1.0, 1.0)
    assert m1.a == 0.0 and m1.c == 0.0


def test_model_requires_positive_parameters():
    for p, q in ((-1.0, 2.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite and positive"):
            build_pq_pair(p, q)


def test_model_normality_is_decided_without_sampling(monkeypatch):
    import qmink.oplab as oplab
    calls = []
    monkeypatch.setattr(oplab, "op_equal", lambda *a, **k: calls.append(a))
    for p, q in PAIRS + ((1e-3, 1e3), (7.0, 7.0)):
        build_pq_pair(p, q)
    assert calls == []


def test_a_model_operator_that_is_not_normal_is_named(monkeypatch):
    import qmink.oplab as oplab
    # an "adjoint" of R that is S*: then R*R = S*R, but RR* = RS* = q^2 S*R
    m, true_adjoint = build_pq_pair(2.0, 3.0), oplab.adjoint
    monkeypatch.setattr(oplab, "adjoint", lambda a: true_adjoint(
        m.S if a.atoms == m.R.atoms else a))
    with pytest.raises(RuntimeError, match="^R is not normal in the model$"):
        build_pq_pair(2.0, 3.0)


def test_diagonal_modulus_takes_no_shift_near_zero(monkeypatch):
    import qmink.oplab as oplab
    m = build_pq_pair(2.0, 3.0)
    near = ShiftMultiplierOperator({(1e-13, 0.0): ExpLin(2.0, 0.0)})
    monkeypatch.setattr(oplab, "compose", lambda a, b: near)
    with pytest.raises(ValueError, match="not a zero-shift multiplier"):
        oplab._diagonal_modulus(m.R)


def test_compose_of_r_and_s_is_a_single_atom():
    m = build_pq_pair(2.0, 3.0)
    rs = compose(m.R, m.S)
    assert set(rs.atoms) == {(m.a, m.c)}
    f = rs.atoms[(m.a, m.c)]
    x, y = 0.37, -1.21
    assert abs(f(x, y) - math.exp(x) * math.exp(y - m.c)) < 1e-12 * math.exp(x + y - m.c)


def test_compose_with_identity():
    m = build_pq_pair(2.0, 3.0)
    assert op_equal(compose(m.R, IDENTITY), m.R, samples=64, seed=0) == 0.0


def test_compose_of_multipliers_multiplies():
    f = ShiftMultiplierOperator.multiplier(ExpLin(1.0, 0.0))
    g = ShiftMultiplierOperator.multiplier(ExpLin(0.0, 2.0))
    fg = compose(f, g)
    assert set(fg.atoms) == {(0.0, 0.0)}
    assert abs(fg.atoms[(0.0, 0.0)](1.0, 1.0) - math.exp(1.0) * math.exp(2.0)) < 1e-12


def test_adjoint_of_r():
    m = build_pq_pair(2.0, 3.0)
    rstar = adjoint(m.R)
    assert set(rstar.atoms) == {(0.0, -m.c)}
    # multiplier stays e^x: independent of the shifted direction
    assert rstar.atoms[(0.0, -m.c)](1.5, 0.0) == pytest.approx(math.exp(1.5))


def test_adjoint_is_an_involution():
    m = build_pq_pair(0.5, math.e)
    assert op_equal(adjoint(adjoint(m.S)), m.S, samples=64, seed=1) == 0.0


def test_adjoint_reverses_composition():
    m = build_pq_pair(2.0, 3.0)
    lhs = adjoint(compose(m.R, m.S))
    rhs = compose(adjoint(m.S), adjoint(m.R))
    assert op_equal(lhs, rhs, samples=200, seed=2) < 1e-13


def test_adjoint_of_unimodular_multiplier():
    op = ShiftMultiplierOperator.multiplier(ExpLin(1j, 0.0))
    conj = adjoint(op).atoms[(0.0, 0.0)]
    assert abs(conj(0.7, 0.0) - cmath.exp(-0.7j)) < 1e-15


def test_normality_is_exact_in_the_model():
    for p, q in PAIRS:
        m = build_pq_pair(p, q)
        for op in (m.R, m.S, z_transform(m.R), z_transform(m.S)):
            assert op_equal(compose(adjoint(op), op), compose(op, adjoint(op)),
                            samples=100, seed=3) == 0.0


# -- z-transform ---------------------------------------------------------------


def test_z_transform_multiplier_value_at_origin():
    m = build_pq_pair(2.0, 3.0)
    z = z_transform(m.R)
    assert set(z.atoms) == {(0.0, m.c)}
    assert z.atoms[(0.0, m.c)](0.0, 0.0) == pytest.approx(1.0 / math.sqrt(2.0))


def test_z_transform_of_zero_is_zero():
    assert z_transform(ShiftMultiplierOperator.zero(), 2.0).is_zero()


def test_z_transform_requires_diagonal_modulus():
    m = build_pq_pair(2.0, 3.0)
    with pytest.raises(ValueError):
        z_transform(m.R + m.S)


def test_z_transform_scale_must_be_positive():
    m = build_pq_pair(2.0, 3.0)
    with pytest.raises(ValueError):
        z_transform(m.R, 0.0)


def test_z_transform_is_a_contraction():
    for p, q in PAIRS:
        m = build_pq_pair(p, q)
        for op in (m.R, m.S):
            for scale in (1.0, p * q, q / p):
                assert op_norm_sample(z_transform(op, scale),
                                      samples=500, seed=5) < 1.0


def test_sqrt_positivity_guard():
    bad = Sqrt(Const(-1.0))
    with pytest.raises(PositivityError):
        bad(0.0, 0.0)


# -- operator equality -----------------------------------------------------------


def test_op_equal_is_zero_on_identical_operators():
    m = build_pq_pair(2.0, 3.0)
    assert op_equal(m.R, m.R, samples=50, seed=0) == 0.0


def test_op_equal_flags_distinct_shifts():
    m = build_pq_pair(2.0, 3.0)
    assert op_equal(m.R, m.S, samples=50, seed=0) > 0.5


def test_commutation_constant_via_op_equal():
    for p, q in PAIRS:
        m = build_pq_pair(p, q)
        r = op_equal(compose(m.R, m.S), compose(m.S, m.R).scaled(p * p),
                     samples=500, seed=11)
        assert r < 1e-12


# -- identity suites ---------------------------------------------------------------


def test_def_mu2_residuals():
    for p, q in PAIRS + ((math.e, 1.0),):
        m = build_pq_pair(p, q)
        result = check_def_mu2(m, samples=500, seed=7)
        assert worst_of(r for _, r in result.parts) < 1e-12
        if p == q == 1.0:
            assert worst_of(r for _, r in result.parts) == 0.0


def test_Q_matrix_entries():
    m = build_pq_pair(2.0, 3.0)
    Q = build_Q(m)
    assert op_equal(Q[1][0], compose(z_transform(m.R), z_transform(m.S)),
                    samples=100, seed=0) == 0.0
    m1 = build_pq_pair(1.0, 1.0)
    Q1 = build_Q(m1)
    assert Q1[0][0].atoms[(0.0, 0.0)](0.0, 0.0) == pytest.approx(0.5)


def test_QQstar_diagonal_value_at_origin():
    # (1 + AB) / ((1+A)(1+B)) with B = 1 equals 1/2 for any A
    for p, q in PAIRS:
        m = build_pq_pair(p, q)
        Q = build_Q(m)
        P00 = compose(Q[0][0], adjoint(Q[0][0])) + compose(Q[0][1], adjoint(Q[0][1]))
        assert P00.atoms[(0.0, 0.0)](0.0, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_QQstar_residuals():
    for p, q in PAIRS:
        m = build_pq_pair(p, q)
        result = check_QQstar(m, samples=500, seed=7)
        assert worst_of(r for _, r in result.parts) < 1e-12
        named = dict(result.parts)
        if p == q == 1.0:
            assert named["(QQ*)_12 = 0"] == 0.0
            assert named["(QQ*)_21 = 0"] == 0.0


def test_QQstar_closed_form_is_plain_at_equal_parameters():
    """At p = q the (QQ*)_11 closed form is literally
    (1+|R|^2|S|^2)/((1+|R|^2)(1+|S|^2)) with |R|^2 = e^{2x}, |S|^2 = e^{2y}."""
    m = build_pq_pair(1.7, 1.7)
    Q = build_Q(m)
    P00 = compose(Q[0][0], adjoint(Q[0][0])) + compose(Q[0][1], adjoint(Q[0][1]))
    f = P00.atoms[(0.0, 0.0)]
    rng = random.Random(9)
    for _ in range(200):
        x, y = rng.uniform(-4, 4), rng.uniform(-4, 4)
        rr, ss = math.exp(2 * x), math.exp(2 * y)
        want = (1 + rr * ss) / ((1 + rr) * (1 + ss))
        assert abs(f(x, y) - want) < 1e-12


def test_twrs_residuals():
    for p, q in PAIRS:
        m = build_pq_pair(p, q)
        result = check_twrs(m, samples=500, seed=7)
        assert worst_of(r for _, r in result.parts) < 1e-12
        if p == q == 1.0:
            assert worst_of(r for _, r in result.parts) == 0.0


def test_twrs_on_a_gaussian_bump():
    m = build_pq_pair(2.0, 3.0)
    bump = gaussian_bump()
    lhs = compose(m.R, m.S)
    rhs = compose(m.S, m.R).scaled(m.p ** 2)
    rng = random.Random(13)
    for _ in range(1000):
        pt = (rng.uniform(-4, 4), rng.uniform(-4, 4))
        u = apply(lhs, bump, pt)
        v = apply(rhs, bump, pt)
        assert abs(u - v) <= 1e-12 * max(1.0, abs(u), abs(v))


# -- bridge to the symbolic layer -----------------------------------------------


def test_symbolic_consistency_plain():
    for s in (0.3, 0.7, 1.1):
        result = check_symbolic_consistency(s, samples=300, seed=3)
        assert worst_of(r for _, r in result.parts) < 1e-12
        assert "p^2 = eval(q^4)" in dict(result.parts)  # p^2 = t^-1 = q^4


def test_identities_across_a_wider_parameter_sweep():
    for p, q in ((0.5, 10.0), (10.0, 0.5), (10.0, 10.0), (math.e, 10.0),
                 (1.0, 10.0)):
        m = build_pq_pair(p, q)
        for check in (check_def_mu2, check_QQstar, check_twrs):
            result = check(m, samples=200, seed=17)
            assert worst_of(r for _, r in result.parts) < 1e-12


def test_sampled_function_vector():
    m = build_pq_pair(2.0, 3.0)
    pt = (0.25, -1.5)
    shifted = (pt[0] - m.a, pt[1])
    phi = SampledFunction({pt: 1.0 + 0.5j, shifted: -2.0})
    got = apply(m.S, phi, pt)
    assert got == pytest.approx(math.exp(pt[1]) * (-2.0))
    with pytest.raises(KeyError):
        apply(m.R, phi, pt)  # R needs a different shifted sample


def test_wrong_shift_in_the_model_is_caught():
    """A model built with the wrong shift must fail the commuting-pair
    identities: the numeric residuals are sensitive to the construction."""
    from qmink.oplab import PQModel
    p, q = 2.0, 3.0
    wrong_a = math.log(p * q)  # should be log(p / q)
    R = ShiftMultiplierOperator({(0.0, -math.log(p * q)): ExpLin(1.0, 0.0)})
    S = ShiftMultiplierOperator({(wrong_a, 0.0): ExpLin(0.0, 1.0)})
    broken = PQModel(p, q, wrong_a, -math.log(p * q), R, S)
    for check in (check_def_mu2, check_twrs):
        result = check(broken, samples=200, seed=5)
        assert worst_of(r for _, r in result.parts) > 1e-3


# -- column-wise evaluation against a per-point oracle ---------------------------
#
# The oracle below is a point-by-point tree walk, kept here as a reference
# that shares no code with qmink: it reads the node fields only and never
# calls a node's own evaluator.  It follows the documented order: a product
# is ((c e^{ax+by}) f_1) ... f_k, left to right, where a factor c = 1 or
# e^0 is not multiplied in; a sum adds its terms left to right.


def oracle_eval(e, x, y):
    if isinstance(e, Mul):
        v = None if e.c == 1 else e.c
        if e.a or e.b:
            z = e.a * x + e.b * y
            ez = cmath.exp(z) if isinstance(z, complex) else math.exp(z)
            v = ez if v is None else v * ez
        for f in e.factors:
            fv = oracle_eval(f, x, y)
            v = fv if v is None else v * fv
        return e.c if v is None else v
    if isinstance(e, Add):
        v = oracle_eval(e.terms[0], x, y)
        for t in e.terms[1:]:
            v = v + oracle_eval(t, x, y)
        return v
    if isinstance(e, Div):
        return oracle_eval(e.num, x, y) / oracle_eval(e.den, x, y)
    if isinstance(e, Sqrt):
        v = complex(oracle_eval(e.arg, x, y))
        scale = abs(v) + 1.0
        if abs(v.imag) > 1e-9 * scale or v.real < -1e-9 * scale:
            raise PositivityError(
                f"sqrt argument {v} at ({x}, {y}) is not a positive real")
        return math.sqrt(max(v.real, 0.0))
    raise TypeError(f"unknown node {e!r}")


def oracle_points(samples, seed):
    rng = random.Random(seed)
    return [(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
            for _ in range(samples)]


def oracle_op_equal(a, b, pts, shift_tol=1e-9):
    pairs, used = [], set()
    only_a = []
    for va in a.atoms:
        vb = next((vb for vb in b.atoms if vb not in used
                   and abs(va[0] - vb[0]) <= shift_tol
                   and abs(va[1] - vb[1]) <= shift_tol), None)
        if vb is None:
            only_a.append(va)
        else:
            used.add(vb)
            pairs.append((va, vb))
    only_b = [vb for vb in b.atoms if vb not in used]
    worst = 0.0
    for va, vb in pairs:
        fa, fb = a.atoms[va], b.atoms[vb]
        for x, y in pts:
            u, v = oracle_eval(fa, x, y), oracle_eval(fb, x, y)
            worst = max(worst, abs(u - v) / max(1.0, abs(u), abs(v)))
    for op, keys in ((a, only_a), (b, only_b)):
        for k in keys:
            for x, y in pts:
                u = abs(oracle_eval(op.atoms[k], x, y))
                worst = max(worst, u / max(1.0, u))
    return worst


def oracle_outcome(fn):
    """The result of fn(), or the type and message of what it raised."""
    try:
        return fn()
    except ArithmeticError as exc:
        return type(exc), str(exc)


def same_value(u, v):
    return u == v or (u != u and v != v)


def test_column_values_match_oracle_on_every_pq_suite_operator(monkeypatch):
    """Every operator pair the pq suite compares, and every operator whose
    norm it samples, evaluates bit-for-bit as the per-point walk does."""
    import qmink.oplab as oplab
    from qmink.suites import run_pq_suite
    seen = []
    equal, norm = oplab.op_equal, oplab.op_norm_sample

    def scope():  # held in seen, so scopes of different blocks stay distinct
        return oplab._scope

    def record_equal(a, b, **kw):
        seen.append((a, b, kw, scope()))
        return equal(a, b, **kw)

    def record_norm(a, **kw):
        seen.append((a, ShiftMultiplierOperator.zero(), kw, scope()))
        return norm(a, **kw)

    monkeypatch.setattr(oplab, "op_equal", record_equal)
    monkeypatch.setattr(oplab, "op_norm_sample", record_norm)
    run_pq_suite(samples=150, seed=7)
    monkeypatch.undo()
    assert len(seen) > 40
    shared = {}  # one memo per model block and sample set, as the suite uses
    for a, b, kw, model in seen:
        pts = oracle_points(kw["samples"], kw["seed"])
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        memo = {}  # one memo per comparison, as op_equal uses alone
        model_memo = shared.setdefault((id(model), kw["samples"]), {})
        for f in list(a.atoms.values()) + list(b.atoms.values()):
            want = [oracle_eval(f, x, y) for x, y in pts]
            # bit-for-bit, signed zeros included
            for m in (memo, model_memo):
                assert [repr(complex(u)) for u in f.column(xs, ys, m)] == \
                    [repr(complex(v)) for v in want]
        assert op_equal(a, b, **kw) == oracle_op_equal(a, b, pts)
    assert len({id(model) for *_, model in seen}) == 6  # 3 pairs, 3 s values


_LEAVES = st.one_of(
    st.sampled_from([Const(1.0), Const(1 + 0j), Const(-0.0), Const(0.0),
                     Const(2.5), Const(-1.5), Const(0.5 - 0.25j), Const(-0j)]),
    st.builds(ExpLin, st.sampled_from([0.0, 1.0, -0.5, 0.5j]),
              st.sampled_from([0.0, 1.0, -1.0, -0.25j])))


def _rebuild(e):
    """An equal tree made of fresh node objects."""
    if isinstance(e, Mul):
        return Mul(e.c, e.a, e.b, tuple(map(_rebuild, e.factors)))
    if isinstance(e, Add):
        return Add(tuple(map(_rebuild, e.terms)))
    if isinstance(e, Div):
        return Div(_rebuild(e.num), _rebuild(e.den))
    return Sqrt(_rebuild(e.arg))


@st.composite
def shared_trees(draw):
    """A pool of expression DAGs: later nodes reuse earlier ones (shared
    subtrees), equal copies built anew, Mul under Add/Div/Sqrt, and the
    equal-comparing constants 1.0, 1+0j, -0.0 and 0.0 side by side."""
    pool = draw(st.lists(_LEAVES, min_size=2, max_size=5))
    for _ in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from(
            ("add", "mul", "mul", "div", "sqrt", "sqrt_raw", "copy")))
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if kind == "add":
            pool.append(a + b)
        elif kind == "mul":
            pool.append(a * (b * a))
        elif kind == "div":
            pool.append(Div(a * b, Const(1.0) + b * b.conj()))
        elif kind == "sqrt":
            pool.append(Sqrt(Const(1 + 0j) + a * a.conj()))
        elif kind == "sqrt_raw":
            pool.append(Sqrt(a))
        else:
            pool.append(_rebuild(a))
    return pool


@settings(max_examples=150, deadline=None)
@given(shared_trees(), st.integers(0, 10 ** 6))
def test_column_values_match_oracle_on_shared_trees(pool, seed):
    pts = oracle_points(12, seed)
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    memo = {}
    for f in pool[-4:]:
        want = oracle_outcome(lambda: [oracle_eval(f, x, y) for x, y in pts])
        got = oracle_outcome(lambda: f.column(xs, ys, memo))
        if isinstance(want, tuple):  # the walk raised; the columns raise too
            assert isinstance(got, tuple) and issubclass(got[0], ArithmeticError)
            memo = {}
            continue
        assert all(map(same_value, got, want))
        assert all(same_value(f(x, y), w) for (x, y), w in zip(pts, want))
    a = ShiftMultiplierOperator({(0.0, 0.0): pool[-1], (1.0, 0.0): pool[-2]})
    b = ShiftMultiplierOperator({(0.0, 0.0): pool[-3], (0.0, 2.0): pool[0]})
    want = oracle_outcome(lambda: oracle_op_equal(a, b, pts))
    got = oracle_outcome(lambda: op_equal(a, b, samples=12, seed=seed))
    if isinstance(want, tuple) and want[0] is not PositivityError:
        assert got[0] is want[0]  # e.g. a division by zero; messages vary by type
    else:
        assert got == want


def test_equal_constants_of_different_types_share_a_column():
    # 1.0 and 1+0j are one constant, -0.0 and 0.0 the zero multiplier, and
    # a real constant is its own conjugate: equal nodes hold equal fields,
    # so a shared column cannot depend on which of them filled it.
    assert Const(1 + 0j) == Const(1.0) and type(Const(1 + 0j).c) is float
    assert Const(-0.0) is ZERO and Const(complex(0.0, -0.0)) is ZERO
    assert Const(-1.5).conj().key == Const(complex(-1.5, -0.0)).key == "-1.5e(0.0,0.0)"
    assert Const(-0.0) * ExpLin(1.0, 0.0) is ZERO
    e = Const(2.0) * ExpLin(1.0, 0.0) + Const(-1.5)
    siblings = [Const(1.0) + e, Const(1 + 0j) + e,
                Div(Const(1.0) + e, Sqrt(Const(1 + 0j) + e * e))]
    assert siblings[0] == siblings[1] and siblings[0] is not siblings[1]
    pts = oracle_points(20, 3)
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    memo = {}
    for f in siblings:
        assert f.column(xs, ys, memo) == [oracle_eval(f, x, y) for x, y in pts]
    assert [k for k in memo if k == siblings[1]] == [siblings[0]]


def test_sqrt_positivity_error_names_the_first_failing_point():
    f = Sqrt(Const(-5.0) + ExpLin(1.0, 0.0))  # negative for x < ln 5
    pts = oracle_points(50, 2)
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    want = oracle_outcome(lambda: [oracle_eval(f, x, y) for x, y in pts])
    assert want[0] is PositivityError
    assert oracle_outcome(lambda: f.column(xs, ys, {})) == want
    op = ShiftMultiplierOperator.multiplier(f)
    assert oracle_outcome(lambda: op_equal(op, op, samples=50, seed=2)) == want
    assert oracle_outcome(lambda: op_norm_sample(op, samples=50, seed=2)) == want


def test_positivity_error_names_the_walks_value_for_equal_nodes():
    # Const(-1.5) and its conjugate are one node; the error names the
    # value (-1.5+0j) that a point-by-point walk meets.
    neg = Const(-1.5)
    f = Sqrt(Const(1 + 0j) + neg * neg.conj()) + Sqrt(neg)
    op = ShiftMultiplierOperator.multiplier(f)
    pts = oracle_points(12, 0)
    want = oracle_outcome(lambda: oracle_op_equal(op, op, pts))
    assert want[0] is PositivityError and "(-1.5+0j)" in want[1]
    assert oracle_outcome(lambda: op_equal(op, op, samples=12, seed=0)) == want
    assert oracle_outcome(lambda: f(0.5, 0.5)) == \
        oracle_outcome(lambda: oracle_eval(f, 0.5, 0.5))


def test_positivity_error_follows_the_point_order_across_nodes():
    # The first Sqrt fails only where x > 3.5, the second where y > 3.0; with
    # seed 0 the second fails first (point 8, against point 31), and the
    # error must name that point, as a point-by-point walk does.
    first = Sqrt(Const(1.0) + Const(-math.exp(-3.5)) * ExpLin(1.0, 0.0))
    second = Sqrt(Const(1.0) + Const(-math.exp(-3.0)) * ExpLin(0.0, 1.0))
    op = ShiftMultiplierOperator.multiplier(first + second)
    pts = oracle_points(200, 0)
    want = oracle_outcome(lambda: oracle_op_equal(op, op, pts))
    assert want[0] is PositivityError and f"at {pts[8]}".replace(" ", "") in \
        want[1].replace(" ", "")
    assert oracle_outcome(lambda: op_equal(op, op, samples=200, seed=0)) == want


@pytest.mark.parametrize("fn", [
    lambda: op_equal(IDENTITY, IDENTITY, samples=0),
    lambda: op_norm_sample(IDENTITY, samples=-5),
])
def test_comparisons_need_at_least_one_sample(fn):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        fn()


def core_identity_rs(m):
    """The two sides of the twrs core identity for RS."""
    dd = compose(defect_sqrt(m.R), defect_sqrt(m.S))
    return (compose(compose(m.R, m.S), dd),
            compose(z_transform(m.R, m.q / m.p),
                    z_transform(m.S)).scaled(m.p / m.q))


def test_op_equal_names_the_worst_point():
    m = build_pq_pair(2.0, 3.0)
    a, b = core_identity_rs(m)
    r = op_equal(a, b, samples=300, seed=4)
    assert r > 0.0
    pts = oracle_points(300, 4)
    at = pts.index(r.at)
    assert oracle_op_equal(a, b, pts[at:at + 1]) == r
    assert oracle_op_equal(a, b, pts[:at]) < r  # the first point attaining r
    same = op_equal(m.R, m.R, samples=300, seed=4)
    assert (same, same.at) == (0.0, pts[0])


def test_failing_pq_check_names_a_replayable_worst_point(capsys):
    import json
    import re

    from qmink.cli import main
    assert main(["check", "pq", "--p", "2", "--q", "3", "--tol", "1e-30",
                 "--format", "json"]) == 1
    checks = {c["name"]: c for c in
              json.loads(capsys.readouterr().out)["reports"][0]["checks"]}
    m = build_pq_pair(2.0, 3.0)
    p, q, R, S = m.p, m.q, m.R, m.S
    operators = {
        "twrs: core identity RS": core_identity_rs(m),
        "def-mu2: z_q/p(R)z(S) = z_pq(S)z(R)": (
            compose(z_transform(R, q / p), z_transform(S)),
            compose(z_transform(S, p * q), z_transform(R))),
        "QQ*: (QQ*)_12 = 0": (
            compose(build_Q(m)[0][0], adjoint(build_Q(m)[1][0]))
            + compose(build_Q(m)[0][1], adjoint(build_Q(m)[1][1])),
            ShiftMultiplierOperator.zero()),
    }
    for name, (a, b) in operators.items():
        check = checks[f"{name} (p=2, q=3)"]
        assert check["status"] == "fail" and check["residual"] > 0.0
        x, y = map(float, re.fullmatch(r"worst at \((\S+), (\S+)\)",
                                       check["detail"]).groups())
        assert oracle_op_equal(a, b, [(x, y)]) == check["residual"]
    # checks without a sample point (scalar residuals) carry no detail
    assert "detail" not in checks["symbolic consistency: p^2 = eval(q^4) "
                                  "(s=0.3, plain)"]


def test_a_failing_contraction_check_names_a_replayable_worst_point(
        monkeypatch):
    import re

    import qmink.oplab as oplab
    from qmink.suites import run_pq_suite
    z = oplab.z_transform

    def doubled(op, scale=1.0):  # no longer a contraction
        return z(op, scale).scaled(2.0)

    monkeypatch.setattr(oplab, "z_transform", doubled)
    report = run_pq_suite(pairs=((2.0, 3.0),), samples=200, seed=7,
                          s_values=())
    (check,) = [c for c in report.checks if "contraction" in c.name]
    assert check.name == "z-transform contraction (p=2, q=3)"
    assert not check.passed and 1.0 < check.residual < 2.0
    x, y = map(float, re.fullmatch(r"worst at \((\S+), (\S+)\)",
                                   check.detail).groups())
    assert (x, y) in oracle_points(200, 7)
    m = build_pq_pair(2.0, 3.0)
    assert max(abs(oracle_eval(f, x, y)) for op in (m.R, m.S)
               for f in doubled(op).atoms.values()) == check.residual


def test_passing_pq_checks_carry_no_detail(capsys):
    import json

    from qmink.cli import main
    assert main(["check", "pq", "--p", "2", "--q", "3", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    assert all("detail" not in c for c in checks)


# -- one set of sample columns and one memo per model ----------------------------


def model_residuals(p, q, samples, seed):
    """Every residual the pq suite takes of one model, with their points."""
    m = build_pq_pair(p, q)
    out = []
    for check in (check_def_mu2, check_QQstar, check_twrs):
        out.extend(check(m, samples, seed).parts)
    out.extend(("contraction", op_norm_sample(z_transform(op), samples=samples,
                                              seed=seed)) for op in (m.R, m.S))
    return [(label, r, getattr(r, "at", None)) for label, r in out]


def test_model_scope_gives_the_per_call_residuals():
    rng = random.Random(2024)
    pairs = PAIRS + tuple((rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
                          for _ in range(2))
    for p, q in pairs:
        alone = model_residuals(p, q, 300, 6)
        with shared_samples():
            scoped = model_residuals(p, q, 300, 6)
        assert scoped == alone
        if p == q == 1.0:
            named = {label: r for label, r, _ in scoped}
            assert named["(QQ*)_12 = 0"] == named["(QQ*)_21 = 0"] == 0.0
    for s in (0.3, 0.7, 1.1):
        alone = check_symbolic_consistency(s, samples=300, seed=6)
        with shared_samples():
            scoped = check_symbolic_consistency(s, samples=300, seed=6)
        assert scoped == alone
        assert [getattr(r, "at", None) for _, r in scoped.parts] == \
            [getattr(r, "at", None) for _, r in alone.parts]


def test_model_scope_shares_columns_per_sample_set_only():
    import qmink.oplab as oplab
    with shared_samples():
        first = oplab._sample_columns(50, 1)
        assert oplab._sample_columns(50, 1) is first
        assert oplab._sample_columns(50, 2) is not first
        assert oplab._sample_columns(60, 1) is not first
        with shared_samples():
            assert oplab._sample_columns(50, 1) is not first
        assert oplab._sample_columns(50, 1) is first
    assert oplab._scope is None
    assert oplab._sample_columns(50, 1) is not oplab._sample_columns(50, 1)


def test_no_memo_survives_the_pq_suite():
    import qmink.oplab as oplab
    from qmink.suites import run_pq_suite
    run_pq_suite(samples=20, seed=1)
    assert oplab._scope is None
    with pytest.raises(ValueError, match="p=1e\\+100, q=1e\\+100"):
        run_pq_suite(pairs=((1e100, 1e100),), samples=20)
    assert oplab._scope is None


# -- canonical forms -------------------------------------------------------------


def test_products_of_constants_and_exponentials_are_one_monomial():
    f = Const(2.0) * ExpLin(1.0, 0.0) * Const(-0.5) * ExpLin(0.5, 1.0)
    assert isinstance(f, Mul) and (f.c, f.a, f.b, f.factors) == (-1.0, 1.5, 1.0, ())
    g = f.shift(0.5, -1.0)
    assert (g.c, g.a, g.b) == (-1.0 * math.exp(-(1.5 * 0.5 + 1.0 * -1.0)), 1.5, 1.0)
    h = (Const(1 + 2j) * ExpLin(0.5j, 1.0)).conj()
    assert (h.c, h.a, h.b) == (1 - 2j, -0.5j, 1.0)
    assert f.shift(0.0, 0.0) is f


def test_a_product_is_one_node_however_it_was_grouped():
    r = Sqrt(Const(1.0) + ExpLin(2.0, 0.0))
    d = Div(Const(1.0), Const(1.0) + ExpLin(0.0, 2.0))
    e = ExpLin(1.0, -1.0)
    routes = [(r * d) * e, r * (d * e), (e * d) * r, e * (r * d) * Const(1.0)]
    assert all(x == routes[0] and x.key == routes[0].key for x in routes)
    assert routes[0].factors == tuple(sorted((r, d), key=lambda f: f.key))
    memo = {}
    cols = [x.column([0.5, -1.0], [0.25, 2.0], memo) for x in routes]
    assert all(c is cols[0] for c in cols)  # one column in the memo


def test_sums_combine_equal_terms_and_drop_exact_zeros():
    r = Sqrt(Const(1.0) + ExpLin(2.0, 0.0))
    f = ExpLin(1.0, 0.0) * r
    s = f + Const(3.0) + Const(-2.0) * f + f
    assert s == Const(3.0)  # 1 - 2 + 1 = 0 copies of f are left
    assert (f + Const(-1.0) * f) is ZERO
    t = f + ExpLin(0.0, 1.0) + f
    assert isinstance(t, Add) and len(t.terms) == 2
    assert {u.c for u in t.terms} == {2.0, 1.0}
    zero = ShiftMultiplierOperator({(1.0, 0.0): f}) + \
        ShiftMultiplierOperator({(1.0, 0.0): Const(-1.0) * f})
    assert zero.is_zero()


def _recorded_sides(monkeypatch, run):
    """The operator pairs op_equal is given while run() runs."""
    import qmink.oplab as oplab
    seen, equal = [], oplab.op_equal

    def record(a, b, **kw):
        seen.append((a, b))
        return equal(a, b, **kw)

    monkeypatch.setattr(oplab, "op_equal", record)
    result = run()
    monkeypatch.undo()
    return seen, result


def test_exact_zeros_at_p_q_one_come_from_structure(monkeypatch):
    """At p = q = 1 the two sides of def-mu2 and twrs are the same nodes,
    and (QQ*)_12, (QQ*)_21 have no atoms: their terms cancel when built."""
    m = build_pq_pair(1.0, 1.0)
    for check, same in ((check_def_mu2, (0, 1)), (check_twrs, (0, 1, 2, 3))):
        sides, result = _recorded_sides(monkeypatch, lambda: check(m, 50, 1))
        for i in same:
            a, b = sides[i]
            assert a.atoms == b.atoms and a.atoms
            assert result.parts[i][1] == 0.0
    sides, result = _recorded_sides(monkeypatch, lambda: check_QQstar(m, 50, 1))
    named = dict(result.parts)
    for (a, b), label in zip(sides[:2], ("(QQ*)_12 = 0", "(QQ*)_21 = 0")):
        assert a.is_zero() and b.is_zero() and named[label] == 0.0


# A recipe is a tree of tuples; build() makes its canonical multiplier and
# raw() evaluates it directly at a point, together with a bound M on the
# magnitudes it adds, so that |canonical - raw| <= 1e-14 M is a relative test.

_RECIPE_LEAVES = st.one_of(
    st.tuples(st.just("const"),
              st.sampled_from([1.0, 2.5, -1.5, 0.5 - 0.25j, 1j, 0.3])),
    st.tuples(st.just("exp"), st.sampled_from([0.0, 1.0, -0.5, 0.5j, 0.25]),
              st.sampled_from([0.0, 0.5, -1.0, -0.25j])))
_SHIFTS = st.sampled_from([0.0, -0.5, 0.75, 1.25])
_RECIPES = st.recursive(_RECIPE_LEAVES, lambda kids: st.one_of(
    st.tuples(st.just("add"), kids, kids),
    st.tuples(st.just("mul"), kids, kids),
    st.tuples(st.just("conj"), kids),
    st.tuples(st.just("shift"), kids, _SHIFTS, _SHIFTS),
    st.tuples(st.just("div"), kids, kids),
    st.tuples(st.just("sqrt"), kids)), max_leaves=8)


def build(r):
    op = r[0]
    if op == "const":
        return Const(r[1])
    if op == "exp":
        return ExpLin(r[1], r[2])
    if op == "add":
        return build(r[1]) + build(r[2])
    if op == "mul":
        return build(r[1]) * build(r[2])
    if op == "conj":
        return build(r[1]).conj()
    if op == "shift":
        return build(r[1]).shift(r[2], r[3])
    if op == "div":
        d = build(r[2])
        return Div(build(r[1]), Const(1.0) + d * d.conj())
    a = build(r[1])
    return Sqrt(Const(1.0) + a * a.conj())


def raw(r, x, y):
    op = r[0]
    if op == "const":
        return complex(r[1]), abs(r[1])
    if op == "exp":
        v = cmath.exp(r[1] * x + r[2] * y)
        return v, abs(v)
    if op == "shift":
        return raw(r[1], x - r[2], y - r[3])
    u, mu = raw(r[1], x, y)
    if op == "conj":
        return u.conjugate(), mu
    if op == "sqrt":
        d = 1.0 + u * u.conjugate()
        return cmath.sqrt(d), (1.0 + mu * mu) / math.sqrt(abs(d))
    v, mv = raw(r[2], x, y)
    if op == "add":
        return u + v, mu + mv
    if op == "mul":
        return u * v, mu * mv
    d = 1.0 + v * v.conjugate()
    return u / d, mu * (1.0 + mv * mv) / abs(d) ** 2


@settings(max_examples=300, deadline=None)
@given(_RECIPES, st.integers(0, 10 ** 6))
def test_canonical_form_matches_the_raw_construction(recipe, seed):
    f = build(recipe)
    rng = random.Random(seed)
    pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8)]
    col = f.column([x for x, _ in pts], [y for _, y in pts], {})
    for (x, y), got in zip(pts, col):
        want, bound = raw(recipe, x, y)
        assert abs(got - want) <= 1e-14 * bound


# -- non-finite residuals fail ----------------------------------------------------


def test_fold_max_keeps_the_first_non_finite_value():
    from qmink.reports import fold_max
    assert fold_max((0.0, 0), [0.5, 0.1, 0.7, 0.7]) == (0.7, 2)
    worst, at = fold_max((0.0, 0), [0.5, 0.1, math.nan, math.inf, 2.0])
    assert worst != worst and at == 2
    assert fold_max((0.0, 0), [0.5, math.inf, math.nan]) == (math.inf, 1)
    assert fold_max((math.inf, 1), [math.nan, 3.0]) == (math.inf, 1)


def test_fold_max_numbers_a_later_block_from_its_start():
    from qmink.reports import fold_max
    best = fold_max((0.0, 0), [0.5, 0.7, 0.1])
    assert fold_max(best, [0.7, 0.2], start=3) == (0.7, 1)  # tie: earlier
    assert fold_max(best, iter([0.2, 0.9, 0.9]), start=3) == (0.9, 4)
    worst, at = fold_max(best, [0.2, math.nan, math.inf], start=3)
    assert worst != worst and at == 4
    assert fold_max((math.nan, 4), [math.inf, 5.0], start=6)[1] == 4
    assert fold_max((0.0, 0), [0.0, -0.0], start=9) == (0.0, 0)
    assert fold_max((0.0, 0), [], start=2) == (0.0, 0)
    assert fold_max((0.5, 0), [math.inf, 2.0], start=2) == (math.inf, 2)


def test_a_nan_multiplier_fails_its_comparison_and_names_its_point():
    from qmink.reports import Residual
    from qmink.suites import _residual_check
    op = ShiftMultiplierOperator.multiplier(Const(math.nan) * ExpLin(1.0, 0.0))
    r = op_equal(op, ShiftMultiplierOperator.zero(), samples=20, seed=3)
    assert r != r and r.at == oracle_points(20, 3)[0]
    norm = op_norm_sample(op, samples=20, seed=3)
    assert norm != norm
    for bad in (r, Residual(math.inf, (0.5, 0.25))):
        check = _residual_check("probe", bad, 1e-12)
        assert not check.passed
        assert check.detail.startswith("first non-finite at (")
    assert not _residual_check("probe", math.nan, 1e-12).passed
