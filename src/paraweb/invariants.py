"""Curvature chain and point invariants of an ODE on its jet space.

The chain starts from the vertical direction V = g d/dxk and iterates
the total derivative, V^(i+1) = [X, V^(i)].  The scaling function g
obeys X(g) = g * m with m = (dF/dxk) / (k+1), so V^(i) = g * U_i with

    U_0 = d/dxk,    U_{i+1} = [X, U_i] + m * U_i,

and the chain is kept as the U_i: g never appears explicitly (results
are "up to the factor g").  The component matrix of V^(0..k) over
(dx0..dxk) is triangular with diagonal (-1)^i, so V^(k+1) expands
exactly as an alternating combination of lower chain elements; the
coefficients are the curvatures K_0..K_{k-1}.  The expansion leaves no
V^(k) component and no d/dt component, each the literal zero by
construction: the d/dt part by induction, since U_0 has none and X's
d/dt coefficient is the constant 1, and the V^(k) coefficient because
m cancels it, interning making both of its dF/dxk one node.  Anything
else is an internal differentiation bug, and ``ExtractionError`` aborts.

On top of the chain sit the Wunschmann residuals (vanishing iff the
solution space carries a canonical paraconformal structure), the
Cartan-type residuals obstructing a totally geodesic paraconformal
connection, and the coefficient b that pins down the one-form beta for
orders >= 4.  Reports do not yet decide the third-order equation that
beta must satisfy, nor the trace relation 2 alpha' + k beta'' = 0; the
tests build both residuals (``tests/oracles.py``).

Everything here is built from the equation alone and takes no zero
tester: residuals are named expressions, and reports decide them with
the tester of each problem.

Note on signs: the order-2 obstruction computed here is
4 V'(K_0) + V(K_0'), the integrability condition of the two scalar
equations that determine b at order 2.  It matches the classical
coordinate Cartan invariant exactly (see ``coordinate_cartan_order2``
and the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .expr import Expr, ZERO, add, add_iter, differentiate, div, mul, neg, pow_int, rational, sub
from .jet import OdeProblem, OneForm, VectorField, lie_bracket

__all__ = [
    "ExtractionError",
    "CurvatureChain",
    "Residual",
    "curvature_chain",
    "gamma_k",
    "wunschmann_residuals",
    "cartan_residuals",
    "beta_coefficient",
    "coordinate_cartan_order2",
    "coordinate_cartan_order3",
    "coordinate_wunschmann_order3",
]


class ExtractionError(RuntimeError):
    """The curvature expansion left an illegal residual component."""


@dataclass(frozen=True)
class Residual:
    """A named scalar expression that vanishes when its condition holds."""

    name: str
    expr: Expr
    note: str | None = None


@dataclass(frozen=True)
class CurvatureChain:
    """V, V', ..., V^(k+1) together with the curvatures K_0..K_{k-1}."""

    ode: OdeProblem
    fields: tuple[VectorField, ...]  # V^(0) .. V^(k+1), factor g dropped
    curvatures: tuple[Expr, ...]  # K_0 .. K_{k-1}
    residual_vk: Expr  # coefficient of V^(k) in the expansion: ZERO
    residual_dt: Expr  # d/dt component of V^(k+1): ZERO


def curvature_chain(ode: OdeProblem) -> CurvatureChain:
    """Compute the normalized chain and extract the curvatures.

    Raises ``ExtractionError`` when the V^(k) coefficient or the d/dt
    component of the expansion, or a remainder of the back-substitution,
    is not the literal zero: all of them are, for a correct
    differentiation engine.
    """
    k = ode.k
    x = ode.total_derivative
    mult = div(differentiate(ode.rhs, f"x{k}"), rational(k + 1))  # m = X(g) / g
    fields = [VectorField(ode.coords, {f"x{k}": rational(1)})]
    for _ in range(k + 1):
        u = fields[-1]
        fields.append(lie_bracket(x, u).plus(u.scaled(mult)))

    top = fields[k + 1]
    residual_dt = top.comp("t")
    # Back-substitution: column x{m} is first reached by V^(k-m), whose
    # leading coefficient there is exactly (-1)^(k-m).  The remainder in
    # x{m} is collected from V^(k+1) and the multiples of V^(i) subtracted
    # so far, and is kept for the check that step m cleared it for good.
    subtracted: list[tuple[Expr, VectorField]] = []
    remainders: list[Expr] = []
    coeffs: list[Expr] = [ZERO] * (k + 1)
    for m in range(k + 1):
        i = k - m
        rest = add_iter([top.comp(f"x{m}")] + _component_terms(subtracted, f"x{m}"))
        coeffs[i] = mul(rational((-1) ** i), rest)
        subtracted.append((neg(coeffs[i]), fields[i]))
        remainders.append(rest)
    for m, rest in enumerate(remainders):
        if add_iter([rest] + _component_terms(subtracted[m:], f"x{m}")) is not ZERO:
            raise ExtractionError("triangular expansion left a nonzero remainder")
    for name, res in (("V^(k)", coeffs[k]), ("d/dt", residual_dt)):
        if res is not ZERO:
            raise ExtractionError(f"nonzero {name} component in the curvature expansion")

    curvatures = tuple(mul(rational((-1) ** (j + 1)), coeffs[j]) for j in range(k))
    return CurvatureChain(ode, tuple(fields), curvatures, coeffs[k], residual_dt)


def _component_terms(parts: list[tuple[Expr, VectorField]], c: str) -> list[Expr]:
    """The nonzero terms of the component ``c`` of sum s * f over ``parts``."""
    return [mul(s, f.comps[c]) for s, f in parts if c in f.comps]


def gamma_k(k: int) -> Fraction:
    """The coefficient of beta''' in the third-order beta equation."""
    return Fraction(-comb(k + 2, 3), 2)


def wunschmann_residuals(ode: OdeProblem, chain: CurvatureChain | None = None) -> list[Residual]:
    """Wunschmann residuals of the equation.

    Orders 3 and 4 get the complete set; order 2 has none; orders >= 5
    return only the universal lowest residual, which is then a necessary
    condition only.
    """
    if ode.order == 2:
        return []
    chain = chain or curvature_chain(ode)
    k = ode.k
    x = ode.total_derivative
    ks = chain.curvatures
    if ode.order == 3:
        w0 = add(ks[0], mul(rational(Fraction(1, 2)), x.apply(ks[1])))
        return [Residual("wunschmann[0]", w0)]
    if ode.order == 4:
        w0 = add_iter(
            [
                ks[0],
                mul(rational(Fraction(3, 10)), x.apply(ks[1])),
                mul(rational(Fraction(-9, 100)), pow_int(ks[2], 2)),
            ]
        )
        w1 = add(ks[1], x.apply(ks[2]))
        return [Residual("wunschmann[0]", w0), Residual("wunschmann[1]", w1)]
    w = add(ks[k - 2], mul(rational(Fraction(k - 1, 2)), x.apply(ks[k - 1])))
    return [Residual("wunschmann[low]", w, note="necessary condition only")]


def cartan_residuals(ode: OdeProblem, chain: CurvatureChain | None = None) -> list[Residual]:
    """Obstructions to a totally geodesic paraconformal connection.

    Orders 2-4 each have a single residual; at order >= 5 the list holds
    the directional-derivative conditions V^(i)(K_{k-1}) for
    i = 0..k-4, the universal second-order condition, and two
    higher-order conditions (conjecturally redundant, reported anyway).
    """
    chain = chain or curvature_chain(ode)
    k = ode.k
    x = ode.total_derivative
    v = chain.fields
    ks = chain.curvatures
    if ode.order == 2:
        e = add(
            mul(rational(4), v[1].apply(ks[0])),
            v[0].apply(x.apply(ks[0])),
        )
        return [Residual("cartan[projective]", e)]
    if ode.order == 3:
        e = add(
            mul(rational(2), v[1].apply(ks[1])),
            v[0].apply(x.apply(ks[1])),
        )
        return [Residual("cartan[einstein-weyl]", e)]
    if ode.order == 4:
        e = add(
            mul(rational(4), v[1].apply(ks[2])),
            mul(rational(3), v[0].apply(x.apply(ks[2]))),
        )
        return [Residual("cartan[order4]", e)]

    out = []
    ktop = ks[k - 1]
    ktop1 = x.apply(ktop)
    ktop2 = x.apply(ktop1)
    for i in range(k - 3):
        out.append(Residual(f"cartan[directional:{i}]", v[i].apply(ktop)))
    e19 = add(
        mul(rational(4), v[k - 2].apply(ktop)),
        mul(rational(3), v[k - 3].apply(ktop1)),
    )
    out.append(Residual("cartan[second-order]", e19))
    g = rational(gamma_k(k))
    sign = rational((-1) ** k)
    e20 = sub(
        mul(sub(mul(rational(2), pow_int(g, -1)), rational(1)), ktop, v[k - 3].apply(ktop)),
        mul(sign, sub(v[k - 2].apply(ktop1), mul(rational(2), v[k - 1].apply(ktop)))),
    )
    out.append(Residual("cartan[higher:1]", e20, note="conjecturally redundant"))
    e21 = sub(
        add(
            mul(
                sub(mul(rational(Fraction(2, 3)), pow_int(g, -1)), rational(1)),
                ktop,
                v[k - 2].apply(ktop),
            ),
            mul(
                add(pow_int(g, -1), rational(Fraction(k - 3, 2))),
                ktop1,
                v[k - 3].apply(ktop),
            ),
        ),
        mul(
            rational(Fraction((-1) ** (k + 1), 3)),
            add_iter(
                [
                    v[k - 2].apply(ktop2),
                    neg(v[k - 1].apply(ktop1)),
                    v[k].apply(ktop),
                ]
            ),
        ),
    )
    out.append(Residual("cartan[higher:2]", e21, note="conjecturally redundant"))
    return out


def beta_coefficient(ode: OdeProblem, chain: CurvatureChain | None = None) -> tuple[Expr, OneForm]:
    """The unique candidate (b, beta) for orders >= 4.

    b = (-1)^k * 2 * V^(k-3)(K_{k-1}) / binom(k+2, 3), and beta = b *
    theta_k where theta_k is dual to V^(k).  The chain is triangular:
    V^(i) has no dx_m component for m < k - i and exactly (-1)^i on
    dx_{k-i}, so theta_k = (-1)^k dx0, and beta annihilates V^(i) for
    every i < k.  For orders 2 and 3 the coefficient is fixed by scalar
    differential equations along the total derivative, not
    algebraically, so this raises ValueError there.
    """
    if ode.order < 4:
        raise ValueError("beta is algebraically determined only for order >= 4")
    chain = chain or curvature_chain(ode)
    k = ode.k
    b = mul(
        rational(Fraction(2 * (-1) ** k, comb(k + 2, 3))),
        chain.fields[k - 3].apply(chain.curvatures[k - 1]),
    )
    return b, OneForm(ode.coords, {"x0": mul(rational((-1) ** k), b)})


# ---------------------------------------------------------------------------
# Classical coordinate invariants for orders 2 and 3, used as independent
# cross-checks of the chain computation.

def _f_partial(ode: OdeProblem, t_order: int = 0, **orders: int) -> Expr:
    counts = {"t": t_order}
    counts.update(orders)
    return ode.context.opaque_symbol("F", counts)


def coordinate_cartan_order2(ode: OdeProblem) -> Expr:
    """The classical point invariant of a second-order equation.

    The sixteen-term coordinate expression whose vanishing characterises
    equations defining a projective structure on the solution space.
    Requires an undetermined right-hand side (it is written in the
    derivative symbols of F).
    """
    if ode.order != 2:
        raise ValueError("order-2 invariant")
    F = ode.rhs
    x1 = ode.context.coordinate("x1")
    d = lambda t=0, x0=0, x1=0: _f_partial(ode, t, x0=x0, x1=x1)
    half = rational(Fraction(1, 2))
    third = rational(Fraction(1, 3))
    sixth = rational(Fraction(1, 6))
    two_thirds = rational(Fraction(2, 3))
    terms = [
        d(x0=2),
        neg(mul(half, F, d(x0=1, x1=2))),
        neg(mul(half, d(x0=1), d(x1=2))),
        neg(mul(two_thirds, d(t=1, x0=1, x1=1))),
        mul(sixth, d(t=2, x1=2)),
        mul(third, x1, d(t=1, x0=1, x1=2)),
        mul(sixth, d(t=1), d(x1=3)),
        mul(third, F, d(t=1, x1=3)),
        neg(mul(two_thirds, x1, d(x0=2, x1=1))),
        mul(sixth, pow_int(x1, 2), d(x0=2, x1=2)),
        mul(sixth, x1, d(x0=1), d(x1=3)),
        mul(third, x1, F, d(x0=1, x1=3)),
        mul(two_thirds, d(x1=1), d(x0=1, x1=1)),
        neg(mul(sixth, d(x1=1), d(t=1, x1=2))),
        neg(mul(sixth, x1, d(x1=1), d(x0=1, x1=2))),
        mul(sixth, pow_int(F, 2), d(x1=4)),
    ]
    return add_iter(terms)


def coordinate_wunschmann_order3(ode: OdeProblem) -> Expr:
    """Classical coordinate Wunschmann invariant of a third-order equation."""
    if ode.order != 3:
        raise ValueError("order-3 invariant")
    x = ode.total_derivative
    d0 = _f_partial(ode, x0=1)
    d1 = _f_partial(ode, x1=1)
    d2 = _f_partial(ode, x2=1)
    return add_iter(
        [
            d0,
            neg(mul(rational(Fraction(1, 2)), x.apply(d1))),
            mul(rational(Fraction(1, 3)), d1, d2),
            mul(rational(Fraction(1, 6)), x.apply(x.apply(d2))),
            neg(mul(rational(Fraction(1, 3)), x.apply(d2), d2)),
            mul(rational(Fraction(2, 27)), pow_int(d2, 3)),
        ]
    )


def coordinate_cartan_order3(ode: OdeProblem) -> Expr:
    """Classical coordinate Cartan invariant of a third-order equation."""
    if ode.order != 3:
        raise ValueError("order-3 invariant")
    x = ode.total_derivative
    d22 = _f_partial(ode, x2=2)
    d12 = _f_partial(ode, x1=1, x2=1)
    d02 = _f_partial(ode, x0=1, x2=1)
    return add_iter([x.apply(x.apply(d22)), neg(x.apply(d12)), d02])

