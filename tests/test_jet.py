"""Jet-space geometry: fields, forms, brackets, coframes."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from paraweb.expr import ZERO, div, neg, rational, sub, sym
from paraweb.jet import (
    FrameError,
    OdeProblem,
    OneForm,
    ScalingRule,
    VectorField,
    differential,
    exterior_derivative,
    lie_bracket,
    lie_derivative_oneform,
    total_derivative_field,
    wedge3,
)
from paraweb.parser import parse_expr
from paraweb.webs import make_web, omega_at
from paraweb.zerotest import Verdict, ZeroTester

from conftest import dual_coframe_oracle, expand

ZT = ZeroTester()


class TestTotalDerivative:
    def test_second_order_trivial_rhs(self):
        ode = OdeProblem.from_rhs(2, "0")
        x = total_derivative_field(ode)
        assert x.comps == {"t": rational(1), "x0": sym("x1")}

    def test_apply_to_base_coordinate(self):
        ode = OdeProblem.abstract(4)
        x = total_derivative_field(ode)
        assert x.apply(sym("x0")) is sym("x1")

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            OdeProblem.from_rhs(1, "0")

    def test_scaling_rule_first_cofactor(self):
        # the first total derivative of the scaling function is
        # (dF/dxk / (k+1)) times the function itself
        ode = OdeProblem.abstract(3)
        rule = ScalingRule(ode)
        expected = div(ode.context.opaque_symbol("F", {"x2": 1}), rational(3))
        assert rule.multiplier is expected
        assert rule.cofactors(1) == [rational(1), expected]


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        ode = OdeProblem.abstract(3)
        a = VectorField(ode.coords, {"t": rational(1)})
        b = VectorField(ode.coords, {"x0": rational(1)})
        assert lie_bracket(a, b).comps == {}

    def test_bracket_with_vertical_direction(self):
        # [X, d/dxk] = -d/dx(k-1) - dF/dxk d/dxk
        for order in (2, 3, 5):
            ode = OdeProblem.abstract(order)
            k = ode.k
            x = total_derivative_field(ode)
            vert = VectorField(ode.coords, {f"x{k}": rational(1)})
            got = lie_bracket(x, vert)
            dkF = ode.context.opaque_symbol("F", {f"x{k}": 1})
            assert got.comps == {f"x{k - 1}": rational(-1), f"x{k}": neg(dkF)}

    def test_antisymmetry_on_random_fields(self):
        ode = OdeProblem.abstract(3)
        rng = random.Random(4)
        coords = ode.coords
        for _ in range(5):
            comps = {
                c: parse_expr(f"{rng.randint(1, 5)}*{c2}^2 + {rng.randint(1, 3)}", ode.context)
                for c, c2 in zip(coords, ("x0", "x1", "x2", "t"))
            }
            a = VectorField(coords, comps)
            assert lie_bracket(a, a).comps == {}

    def test_jacobi_identity(self):
        ode = OdeProblem.abstract(2)
        c = ode.coords
        p = lambda s: parse_expr(s, ode.context)
        a = VectorField(c, {"t": p("x1"), "x0": p("x0^2")})
        b = VectorField(c, {"x0": p("t*x1"), "x1": p("F")})
        d = VectorField(c, {"x1": p("x0 + 2*x1")})
        acc = VectorField(c, {})
        for u, v, w in ((a, b, d), (b, d, a), (d, a, b)):
            acc = acc.plus(lie_bracket(lie_bracket(u, v), w))
        assert all(ZT.verdict(e) is Verdict.ZERO for e in acc.comps.values())

    def test_leibniz_compatibility(self):
        # [A, f B] = A(f) B + f [A, B]
        ode = OdeProblem.abstract(2)
        c = ode.coords
        p = lambda s: parse_expr(s, ode.context)
        a = VectorField(c, {"t": rational(1), "x0": p("x1")})
        b = VectorField(c, {"x0": p("x0*x1"), "x1": p("F_x1")})
        f = p("x0^2 + t")
        lhs = lie_bracket(a, b.scaled(f))
        rhs = b.scaled(a.apply(f)).plus(lie_bracket(a, b).scaled(f))
        diff = lhs.plus(rhs.scaled(rational(-1)))
        assert all(ZT.verdict(e) is Verdict.ZERO for e in diff.comps.values())

    def test_frame_mismatch(self):
        a = VectorField(("x0", "x1"), {"x0": rational(1)})
        b = VectorField(("x0", "x1", "x2"), {"x0": rational(1)})
        with pytest.raises(FrameError):
            lie_bracket(a, b)


class TestForms:
    def test_d_of_constant_form_vanishes(self):
        ode = OdeProblem.abstract(2)
        w = OneForm(ode.coords, {"x1": rational(1)})
        assert exterior_derivative(w).comps == {}

    def test_d_of_x0_dx1(self):
        ode = OdeProblem.abstract(2)
        w = OneForm(ode.coords, {"x1": sym("x0")})
        dw = exterior_derivative(w)
        a = VectorField(ode.coords, {"x0": rational(1)})
        b = VectorField(ode.coords, {"x1": rational(1)})
        assert dw(a, b) is rational(1)

    def test_dd_is_zero(self):
        ode = OdeProblem.abstract(3)
        p = lambda s: parse_expr(s, ode.context)
        w = p("x0*x1 + F")
        dw = exterior_derivative(differential(w, ode.coords))
        assert all(expand(e) is ZERO for e in dw.comps.values())

    def test_dd_is_zero_on_random_forms(self):
        ode = OdeProblem.abstract(2)
        p = lambda s: parse_expr(s, ode.context)
        w = OneForm(ode.coords, {"t": p("x0^2*x1"), "x0": p("F*x1"), "x1": p("t/x0")})
        # d(dw) would be a three-form; instead check the antisymmetrized
        # derivative identity through wedge with a closed form
        dw = exterior_derivative(w)
        v = [VectorField(ode.coords, {c: rational(1)}) for c in ode.coords]
        # cyclic sum d(dw) coefficient: d_u dw_vw + d_v dw_wu + d_w dw_uv = 0
        from paraweb.expr import add_iter, differentiate

        u, vv, ww = ode.coords
        cyc = add_iter(
            [
                differentiate(dw.comp(vv, ww), u),
                differentiate(dw.comp(ww, u), vv),
                differentiate(dw.comp(u, vv), ww),
            ]
        )
        assert ZT.verdict(cyc) is Verdict.ZERO

    def test_separable_web_has_integrable_pencil(self):
        web = make_web(2, "x0 + exp(x1) + x2^3/3")
        for tval in (Fraction(5), Fraction(-2)):
            om = omega_at(web, tval)
            three = wedge3(om, exterior_derivative(om))
            assert all(ZT.verdict(e) is Verdict.ZERO for e in three.comps.values())

    def test_lie_derivative_of_form(self):
        # L_X d(f) = d(X f)
        ode = OdeProblem.abstract(3)
        p = lambda s: parse_expr(s, ode.context)
        f = p("x0*x2 + t*x1")
        x = total_derivative_field(ode)
        lhs = lie_derivative_oneform(x, differential(f, ode.coords))
        rhs = differential(x.apply(f), ode.coords)
        diff = lhs.plus(rhs.scaled(rational(-1)))
        assert all(ZT.verdict(e) is Verdict.ZERO for e in diff.comps.values())


class TestDualCoframe:
    # The coframe dual to the chain, from the test-side elimination: the
    # form dual to V^(k) is the (-1)^k dx0 that beta_coefficient uses.
    def test_triangular_chain_trivial_equation(self):
        from paraweb.invariants import curvature_chain

        ode = OdeProblem.from_rhs(4, "0")
        chain = curvature_chain(ode, ZT)
        thetas = dual_coframe_oracle(chain.fields[:4], ode.x_coords, ZT)
        # V^(i) = (-1)^i d/dx(k-i), so theta_i = (-1)^i dx(k-i)
        for i, th in enumerate(thetas):
            assert th.comps == {f"x{3 - i}": rational((-1) ** i)}

    def test_duality_for_generic_third_order(self):
        from paraweb.invariants import curvature_chain

        for order in (3, 4, 5):
            ode = OdeProblem.abstract(order)
            k = ode.k
            chain = curvature_chain(ode, ZT)
            thetas = dual_coframe_oracle(chain.fields[:k + 1], ode.x_coords, ZT)
            for i in range(k + 1):
                for j in range(k + 1):
                    val = thetas[i](chain.fields[j])
                    expected = rational(1) if i == j else ZERO
                    assert ZT.verdict(sub(val, expected)) is Verdict.ZERO, (order, i, j)
            assert thetas[k].comps == {"x0": rational((-1) ** k)}, order


# Concrete right-hand sides of orders 2..10, the grammar's ceiling.
CONCRETE_RHS = [
    (2, "x1^2/x0 + t"),
    (3, "x2^3"),
    (4, "5*x3^2/(3*x2)"),
    (5, "5*x4^2/(4*x3)"),
    (6, "x5^2*x1 + exp(x0)"),
    (7, "t*x6 + x0*x1*x5"),
    (8, "x7^3/(x6 + 1)"),
    (9, "sin(x8) + x2*x3"),
    (10, "x9^2/x8 + x0*x9"),
]


class TestChainTriangularity:
    def test_leading_components(self):
        from paraweb.invariants import curvature_chain

        # V^(i) has no dx_m component for m < k - i and exactly (-1)^i on
        # dx_{k-i}: the triangularity that fixes the dual of V^(k).
        odes = [OdeProblem.abstract(order) for order in range(2, 8)]
        odes += [OdeProblem.from_rhs(order, rhs) for order, rhs in CONCRETE_RHS]
        for ode in odes:
            k = ode.k
            chain = curvature_chain(ode, ZT)
            for i in range(k + 1):
                f = chain.fields[i]
                assert f.comp(f"x{k - i}") is rational((-1) ** i)
                for j in range(k - i):
                    assert f.comp(f"x{j}") is ZERO
                assert f.comp("t") is ZERO
