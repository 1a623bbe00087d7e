"""Objects that only tests use.

On the ODE side: the scaling cofactors G_j of the section scaling
function and the curvature chain built from them, the reference for the
one recursion of ``invariants.curvature_chain``; the chain's expansion
residual; the Lie derivative and differential of one-forms, and the
residuals of the third-order beta equation and of the trace relation,
which reports do not decide yet.

On the web side: the Hirota verdict as one bool, omega(t) and V(t) at a
given t, the first-order hierarchy, the Lax tuple and its commutators,
the rational matrices of the null curve's fields and coframe, connections given by
their Christoffel tables (the k = 2 Weyl connection and the k = 3 Bryant
connection, built from their forms on the null frame), torsion, the
Ricci tensor and its null contraction, the covariant derivative of the
k = 2 conformal metric with the Weyl form and compatibility residuals
read from it, a base-point sampler, the bi-Hamiltonian pencil with its
Schouten bracket, two- and three-forms with the exterior derivative and
the wedge that omega(t) ^ d omega(t) needs, and a ``Fraction`` reference
of every table of ``paraweb.spectral``.

Pi(t) = sum_i L_i(t) ^ d/dy_i lives on the extended space with
coordinates x_0..x_k, y_1..y_k.  Reports decide [Pi(t), Pi(t)] = 0 from
the Lax residuals: the only components that can be nonzero are
(x_a, y_i, y_j) = 2 [L_i(t), L_j(t)]^{x_a}, and the bracket is bilinear,
so each is 2 sum_d t^d lax[i,j;x_a;t^d].  The functions here build the
bracket from its coordinate definition instead, so that tests can check
that reading.

Reports print Ric(V(t), V(t)) as 0.0 on every Hirota solution without
building a Ricci tensor; ``ricci_null_value`` builds it here, so that
tests can decide the identity exactly.  Likewise the k = 2 Weyl
connection is compatible with its conformal metric, and the k = 3 Bryant
connection is torsion-free, on every web a report builds them for (a
Hirota solution), so reports print no verdict for either; the residuals
here let tests decide both.  Reports read the Weyl form from the
connection's forms, phi = -2 (alpha_tilde + f omega_1), and flatness
from the two torsion components a diagonal connection can have; the
Christoffel tables and the full torsion here are their references.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice
from math import comb, factorial, lcm, prod
from typing import Sequence

from paraweb.expr import (
    ONE,
    RAT,
    ZERO,
    Expr,
    _coeff_mono,
    add_iter,
    differentiate,
    div,
    eval_numeric,
    free_symbols,
    mul,
    neg,
    rational,
    sub,
)
import paraweb.webs as webs
from paraweb.invariants import CurvatureChain, Residual, curvature_chain, gamma_k
from paraweb.jet import FrameError, OdeProblem, OneForm, VectorField, lie_bracket
from paraweb.webs import (
    BryantForms,
    NullCurve,
    VeroneseWeb,
    WebConnection,
    conformal_metric,
    null_curve,
    omega_coefficient_forms,
)
from paraweb.zerotest import Verdict, ZeroTester, _pole_free

# The tester of the oracles' callers that pass none.
DEFAULT_TESTER = ZeroTester()


@dataclass(frozen=True)
class ScalingRule:
    """Normalized total derivatives of the section scaling function.

    The function g scaling the vertical direction satisfies
    X(g) = g * dF/dxk / (k+1).  g itself is never constructed: writing
    X^j(g) = G_j * g, the cofactors obey G_0 = 1 and
    G_{j+1} = X(G_j) + G_j * multiplier.
    """

    ode: OdeProblem

    @property
    def multiplier(self) -> Expr:
        dkF = differentiate(self.ode.rhs, f"x{self.ode.k}")
        return div(dkF, rational(self.ode.k + 1))

    def cofactors(self, count: int) -> list[Expr]:
        """[G_0, ..., G_count]."""
        x = self.ode.total_derivative
        m = self.multiplier
        out = [rational(1)]
        for _ in range(count):
            g = out[-1]
            out.append(x.apply(g) + mul(g, m))
        return out


def cofactor_chain(ode: OdeProblem) -> tuple[list[VectorField], list[Expr]]:
    """The chain U_0..U_{k+1} and the curvatures K_0..K_{k-1}, by the
    Leibniz rule for V^(i) = ad_X^i(g d/dxk) over g:

        U_i = sum_j binom(i, j) G_j ad_X^(i-j)(d/dxk),

    with the curvatures read off by subtracting (-1)^i coeff V^(i) from
    V^(k+1), column x0 first."""
    k = ode.k
    x = ode.total_derivative
    ad = [VectorField(ode.coords, {f"x{k}": rational(1)})]
    for _ in range(k + 1):
        ad.append(lie_bracket(x, ad[-1]))
    cof = ScalingRule(ode).cofactors(k + 1)
    fields = []
    for i in range(k + 2):
        f = VectorField(ode.coords, {})
        for j in range(i + 1):
            f = f.plus(ad[i - j].scaled(mul(rational(comb(i, j)), cof[j])))
        fields.append(f)
    rest = fields[k + 1]
    coeffs = [ZERO] * (k + 1)
    for m in range(k + 1):
        i = k - m
        coeffs[i] = mul(rational((-1) ** i), rest.comp(f"x{m}"))
        rest = rest.plus(fields[i].scaled(neg(coeffs[i])))
    return fields, [mul(rational((-1) ** (j + 1)), coeffs[j]) for j in range(k)]


def expansion_residual(chain: CurvatureChain) -> VectorField:
    """V^(k+1) + K_0 V - K_1 V' + ... as a vector field (should vanish)."""
    k = chain.ode.k
    acc = chain.fields[k + 1]
    for j in range(k):
        sign = rational((-1) ** j)  # +K_0 V, -K_1 V', ...
        acc = acc.plus(chain.fields[j].scaled(mul(sign, chain.curvatures[j])))
    return acc


def lie_derivative_oneform(x: VectorField, w: OneForm) -> OneForm:
    """(L_x w)_c = x(w_c) + sum_d w_d * d(x^d)/dc."""
    if x.frame != w.frame:
        raise FrameError("field and form frames differ")
    comps = {}
    for c in x.frame:
        terms = [x.apply(w.comp(c))]
        for d, xd in x.comps.items():
            wd = w.comp(d)
            if wd is not ZERO:
                terms.append(mul(wd, differentiate(xd, c)))
        comps[c] = add_iter(terms)
    return OneForm(x.frame, comps)


def differential(e: Expr, frame: tuple[str, ...]) -> OneForm:
    return OneForm(frame, {c: differentiate(e, c) for c in frame})


def connection_residuals(
    ode: OdeProblem,
    alpha: OneForm,
    beta: OneForm,
    chain: CurvatureChain | None = None,
) -> list[Residual]:
    """Residuals of the third-order beta equation and the trace relation.

    The beta equation reads gamma_k beta''' + (-1)^k K' beta
    + 2 (-1)^k K beta' = (-1)^k dK with K = K_{k-1}; the trace relation
    is 2 alpha' + k beta'' = 0.  Both one-forms are evaluated against
    V^(0)..V^(k), one named scalar each.  Reports do not decide
    either yet; this is the reference for a runtime beta residual.
    """
    chain = chain or curvature_chain(ode)
    k = ode.k
    x = ode.total_derivative
    ktop = chain.curvatures[k - 1]
    b1 = lie_derivative_oneform(x, beta)
    b2 = lie_derivative_oneform(x, b1)
    b3 = lie_derivative_oneform(x, b2)
    a1 = lie_derivative_oneform(x, alpha)
    sign = rational((-1) ** k)
    lhs = b3.scaled(rational(gamma_k(k)))
    lhs = lhs.plus(beta.scaled(mul(sign, x.apply(ktop))))
    lhs = lhs.plus(b1.scaled(mul(sign, rational(2), ktop)))
    rhs = differential(ktop, ode.coords).scaled(sign)
    eq_beta = lhs.plus(rhs.scaled(rational(-1)))
    eq_trace = a1.scaled(rational(2)).plus(b2.scaled(rational(k)))

    out = []
    for i in range(k + 1):
        out.append(Residual(f"beta-equation[V^({i})]", eq_beta(chain.fields[i])))
    for i in range(k + 1):
        out.append(Residual(f"trace-relation[V^({i})]", eq_trace(chain.fields[i])))
    return out


# Five distinct values of t outside the default spectral set (0, 1, ...)
# and outside T2 = (-7/2, 1/3, 2, 9/5) of the report pins: Ric(V(t), V(t))
# is a polynomial of degree at most 4 in t when k = 2, so it vanishes for
# every t exactly when it vanishes at these five.
RICCI_NULL_NODES = tuple(Fraction(n, 3) for n in (-4, -1, 2, 5, 7))


def spectral_weights(count: int, tval: Fraction, order: int) -> list[tuple[int, Fraction]]:
    """The nonzero (m, weight) with d^order/dt^order t^m = weight at t = tval,
    for m < count: the order-th t-derivative of sum_m t^m a_m at tval is
    sum weight * a_m."""
    tval = Fraction(tval)
    out = []
    for m in range(order, count):
        c = Fraction(factorial(m), factorial(m - order)) * tval ** (m - order)
        if c:
            out.append((m, c))
    return out


def spectral_at(coeffs: Sequence, tval: Fraction, order: int):
    """The order-th t-derivative of sum_m t^m coeffs[m] (fields or forms) at
    an exact rational t.

    In each coordinate x, every degree's component is q_m * base_x for one
    base_x shared by all degrees (dw/dx_i for omega, (dw/dx_i)^-1 for V),
    so the component at t is mul(rational(sum_m weight_m q_m), base_x).
    """
    weights = spectral_weights(len(coeffs), tval, order)
    frame = coeffs[0].frame
    comps = {}
    for x in frame:
        total, base = 0, None
        for m, weight in weights:
            e = coeffs[m].comps.get(x)
            if e is not None:
                q, base = (e.payload, ONE) if e.kind == RAT else _coeff_mono(e)
                total += weight * q
        if base is not None:
            comps[x] = mul(rational(total), base)
    return type(coeffs[0])(frame, comps)


def omega_at(web: VeroneseWeb, tval: Fraction, order: int = 0) -> OneForm:
    """omega(t), or its order-th t-derivative, at an exact rational t."""
    return spectral_at(omega_coefficient_forms(web), tval, order)


def null_curve_at(web: VeroneseWeb, tval: Fraction, order: int = 0) -> VectorField:
    """V(t), or its order-th t-derivative, at an exact rational t."""
    return spectral_at(null_curve(web).fields, tval, order)


def is_hirota_solution(web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER) -> bool:
    """The report's ``hirota`` verdict: every verdict of ``webs.hirota_verdicts``
    is zero (on a web that passes ``webs.check_nondegenerate``)."""
    return all(v is Verdict.ZERO for v in webs.hirota_verdicts(web, zero).values())


def eq1_residuals(web: VeroneseWeb) -> dict[tuple[int, int], Expr]:
    """First-order form of the integrable hierarchy, one residual per pair.

    Uses the hierarchy coefficients a_i = (t_i - t_0) / (t_{k+1} - t_i):
    with those, the residual of the pair (i, j) is H_0ij / ((t_{k+1} - t_i)
    (t_{k+1} - t_j)), H the Hirota residuals, which is how reports print it.
    """
    ts = web.t_params
    out = {}
    d0 = web.dw(0)
    for i in range(1, web.k + 1):
        for j in range(i + 1, web.k + 1):
            ai, aj = (rational((ts[m] - ts[0]) / (ts[-1] - ts[m])) for m in (i, j))
            # a term with a zero second derivative is skipped, not built
            terms = [(sub(ai, aj), d0, web.dw2(i, j)), (aj, web.dw(i), web.dw2(j, 0))]
            minus = [(ai, web.dw(j), web.dw2(i, 0))]
            out[(i, j)] = add_iter(
                (mul(*t) for t in terms if t[2] is not ZERO),
                (mul(*t) for t in minus if t[2] is not ZERO),
            )
    return out


def lax_pencil(web: VeroneseWeb) -> list[tuple[VectorField, VectorField]]:
    """(base, direction) with L_i(t) = base + t * direction, for i = 1..k:

        L_i(t) = -(t - t_0) (dw/dx_i / dw/dx_0) d/dx_0 + a_i (t - t_i) d/dx_i.

    The (t - t_0) factor on the first component makes omega(t)(L_i(t))
    cancel identically; without it the fields are affine in t but fail
    both tangency and the commutation criterion.
    """
    out = []
    for i in range(1, web.k + 1):
        ratio = div(web.dw(i), web.dw(0))
        base = VectorField(
            web.coords,
            {
                "x0": mul(rational(web.t_params[0]), ratio),
                f"x{i}": rational(-web.a_i(i) * web.t_params[i]),
            },
        )
        direction = VectorField(web.coords, {"x0": neg(ratio), f"x{i}": rational(web.a_i(i))})
        out.append((base, direction))
    return out


def lax_tuple(web: VeroneseWeb, tval: Fraction) -> list[VectorField]:
    """L_1(t)..L_k(t), tangent to the web foliation at spectral value t."""
    t = rational(Fraction(tval))
    return [base.plus(direction.scaled(t)) for base, direction in lax_pencil(web)]


def lax_commutator_residuals(web: VeroneseWeb) -> dict[tuple[int, int, str, int], Expr]:
    """Coefficients of [L_i, L_j] as polynomials in t, keyed
    (i, j, coordinate, t-degree), each built by Lie brackets; a
    coefficient that is the constant 0 is left out.

    With T = t_{k+1}, [L_i(t), L_j(t)] = -(t - t_0)(t - T) H_0ij
    / ((dw/dx_0)^2 (T - t_i)(T - t_j)) d/dx_0, H the Hirota residuals,
    which is how reports print its coefficients.
    """
    out = {}
    parts = lax_pencil(web)
    for i in range(1, web.k + 1):
        for j in range(i + 1, web.k + 1):
            b_i, d_i = parts[i - 1]
            b_j, d_j = parts[j - 1]
            by_degree = {
                0: lie_bracket(b_i, b_j),
                1: lie_bracket(b_i, d_j).plus(lie_bracket(d_i, b_j)),
                2: lie_bracket(d_i, d_j),
            }
            for deg, fieldv in by_degree.items():
                for c, e in fieldv.comps.items():
                    out[(i, j, c, deg)] = e
    return out


def coefficient_matrix(curve: NullCurve) -> list[list[Fraction]]:
    """Rational parts r[i][j]: V_i = sum_j r[i][j] (dw/dx_j)^-1 d/dx_j,
    read off the null curve's fields."""
    web = curve.web
    out = []
    for f in curve.fields:
        row = [mul(f.comp(f"x{j}"), web.dw(j)) for j in range(web.k + 1)]
        assert all(e.kind == RAT for e in row), row
        out.append([e.payload for e in row])
    return out


def coframe_matrix(curve: NullCurve) -> list[list[Fraction]]:
    """Rational parts D[j][i]: eta_i = sum_j D[j][i] dw/dx_j dx_j, read off
    the null curve's coframe."""
    web = curve.web
    out = []
    for j in range(web.k + 1):
        row = [div(eta.comp(f"x{j}"), web.dw(j)) for eta in curve.coframe]
        assert all(e.kind == RAT for e in row), row
        out.append([e.payload for e in row])
    return out


@dataclass(frozen=True)
class TableConnection:
    """A web connection given by its Christoffel table: ``table[(a, b, c)]``
    is the coefficient of d/dx_c in nabla_{d/dx_a} d/dx_b, and a missing
    entry is 0."""

    web: VeroneseWeb
    table: dict[tuple[str, str, str], Expr]

    def christoffel(self, a: str, b: str, c: str) -> Expr:
        return self.table.get((a, b, c), ZERO)


def paraconformal_christoffels(
    web: VeroneseWeb,
    alpha0: OneForm,
    betas: list[OneForm],
) -> dict[tuple[str, str, str], Expr]:
    """Christoffel table of the connection defined on the null frame by

        nabla V_i = alpha0 (x) V_i + i beta1 (x) V_i
                    + (i-1-k) beta2 (x) V_{i-1} + (i+1) beta0 (x) V_{i+1},

    the coefficient form of nabla V(t) = alpha(t) V(t) + beta(t) V'(t)
    with beta(t) = beta0 + t beta1 + t^2 beta2 and alpha(t) = alpha0
    - k t beta2 (the t-linear part of alpha is forced by matching the
    top polynomial degree).
    """
    k = web.k
    nc = null_curve(web)
    beta0, beta1, beta2 = betas
    psi: dict[tuple[int, int], OneForm] = {}
    for i in range(k + 1):
        psi[(i, i)] = alpha0.plus(beta1.scaled(rational(i)))
        if i >= 1:
            psi[(i, i - 1)] = beta2.scaled(rational(i - 1 - k))
        if i + 1 <= k:
            psi[(i, i + 1)] = beta0.scaled(rational(i + 1))

    table: dict[tuple[str, str, str], Expr] = {}
    coords = web.coords
    for a in coords:
        for b in coords:
            comp_terms: dict[str, list[Expr]] = {c: [] for c in coords}
            for i in range(k + 1):
                # transport term: d/dx_a (xi) V_i, with d/dx_b = sum_i xi V_i
                xi = nc.coframe[i].comp(b)
                dxi = differentiate(xi, a)
                if dxi is not ZERO:
                    for c, vic in nc.fields[i].comps.items():
                        comp_terms[c].append(mul(dxi, vic))
                # connection term: xi * psi(d/dx_a) V_m
                for m in range(k + 1):
                    form = psi.get((i, m))
                    if form is None:
                        continue
                    scal = form.comp(a)
                    if scal is ZERO:
                        continue
                    coeff = mul(xi, scal)
                    for c, vmc in nc.fields[m].comps.items():
                        comp_terms[c].append(mul(coeff, vmc))
            for c, terms in comp_terms.items():
                val = add_iter(terms)
                if val is not ZERO:
                    table[(a, b, c)] = val
    return table


def weyl_connection(web: VeroneseWeb) -> TableConnection:
    """The k = 2 Weyl connection as a Christoffel table, from the f and
    alpha_tilde that reports print, with beta(t) = f omega(t).  Built for
    any w: ``webs._weyl_connection`` does not check the Hirota system."""
    conn = webs._weyl_connection(web)
    betas = [om.scaled(conn.f) for om in omega_coefficient_forms(web)]
    return TableConnection(web, paraconformal_christoffels(web, conn.alpha_tilde, betas))


def torsion(conn: WebConnection | TableConnection) -> dict[tuple[str, str], VectorField]:
    """T(d/dx_a, d/dx_b) for a < b, as vector fields."""
    out = {}
    coords = conn.web.coords
    for ia, a in enumerate(coords):
        for b in coords[ia + 1:]:
            comps = {c: sub(conn.christoffel(a, b, c), conn.christoffel(b, a, c)) for c in coords}
            out[(a, b)] = VectorField(coords, comps)
    return out


def torsion_free(conn: WebConnection | TableConnection, zero: ZeroTester = DEFAULT_TESTER) -> bool:
    """Every torsion component zero-tested: the reference for
    ``webs.flatness_verdict``."""
    return all(zero.verdict(e) is Verdict.ZERO for v in torsion(conn).values() for e in v.comps.values())


def ricci_tensor(conn: WebConnection | TableConnection) -> dict[tuple[str, str], Expr]:
    """Ric(Y, Z) = trace(X -> R(X, Y) Z) of a web connection, componentwise."""
    coords = conn.web.coords
    gam = {
        (a, b, c): conn.christoffel(a, b, c)
        for a in coords
        for b in coords
        for c in coords
    }
    out = {}
    # A term with a zero factor adds nothing to the (sorted) sum, so it is
    # never built: a diagonal connection has (k+1)^2 nonzero symbols of
    # (k+1)^3.
    for b in coords:
        for c in coords:
            terms, minus = [], []
            for a in coords:
                if gam[(b, c, a)] is not ZERO:
                    terms.append(differentiate(gam[(b, c, a)], a))
                if gam[(a, c, a)] is not ZERO:
                    minus.append(differentiate(gam[(a, c, a)], b))
                for m in coords:
                    if gam[(a, m, a)] is not ZERO and gam[(b, c, m)] is not ZERO:
                        terms.append(mul(gam[(a, m, a)], gam[(b, c, m)]))
                    if gam[(b, m, a)] is not ZERO and gam[(a, c, m)] is not ZERO:
                        minus.append(mul(gam[(b, m, a)], gam[(a, c, m)]))
            out[(b, c)] = add_iter(terms, minus)
    return out


def _metric_comp(g: dict[tuple[str, str], Expr], c: str, d: str) -> Expr:
    if (c, d) in g:
        return g[(c, d)]
    return g.get((d, c), ZERO)


def covariant_metric_derivative(conn: TableConnection, g, a: str, b: str, c: str) -> Expr:
    """(nabla_{d/dx_a} g)(d/dx_b, d/dx_c) from the Christoffel table."""
    minus = []
    for m in conn.web.coords:
        gb = conn.christoffel(a, b, m)
        if gb is not ZERO:
            minus.append(mul(gb, _metric_comp(g, m, c)))
        gc = conn.christoffel(a, c, m)
        if gc is not ZERO:
            minus.append(mul(gc, _metric_comp(g, b, m)))
    return add_iter([differentiate(_metric_comp(g, b, c), a)], minus)


def weyl_form_from_connection(
    conn: TableConnection,
    g: dict[tuple[str, str], Expr] | None = None,
) -> OneForm:
    """The one-form phi with nabla g = phi (x) g, extracted componentwise
    at the pivot (x0, x0); reports print it as -2 (alpha_tilde + f omega_1)."""
    if g is None:
        g = conformal_metric(conn.web)
    coords = conn.web.coords
    pivot = ("x0", "x0")
    return OneForm(coords, {a: div(covariant_metric_derivative(conn, g, a, *pivot), _metric_comp(g, *pivot))
                            for a in coords})


def weyl_compatibility_residuals(
    conn: TableConnection,
    g: dict[tuple[str, str], Expr] | None = None,
    phi: OneForm | None = None,
    zero: ZeroTester = DEFAULT_TESTER,
) -> dict[tuple[str, str, str], tuple[Expr, Verdict]]:
    """Residuals (nabla g - phi (x) g)_{a;bc} of the k = 2 Weyl
    connection, with verdicts."""
    web = conn.web
    if g is None:
        g = conformal_metric(web)
    if phi is None:
        phi = weyl_form_from_connection(conn, g)
    out = {}
    for a in web.coords:
        for bi, b in enumerate(web.coords):
            for c in web.coords[bi:]:
                e = sub(
                    covariant_metric_derivative(conn, g, a, b, c),
                    mul(phi.comp(a), _metric_comp(g, b, c)),
                )
                out[(a, b, c)] = (e, zero.verdict(e))
    return out


def bryant_betas(bf: BryantForms) -> list[OneForm]:
    return [bf.beta0, bf.beta1, bf.beta2]


def bryant_connection(bf: BryantForms) -> TableConnection:
    """The k = 3 Bryant connection as a Christoffel table, built from its
    forms on the null frame as the k = 2 Weyl connection's table is."""
    return TableConnection(bf.web, paraconformal_christoffels(bf.web, bf.alpha, bryant_betas(bf)))


def bryant_torsion_residuals(
    bf: BryantForms, zero: ZeroTester = DEFAULT_TESTER
) -> dict[tuple[str, str, str], tuple[Expr, Verdict]]:
    """Torsion components of the Bryant connection in coordinates."""
    out = {}
    for (a, b), fieldv in torsion(bryant_connection(bf)).items():
        for cname, e in fieldv.comps.items():
            out[(a, b, cname)] = (e, zero.verdict(e))
    return out


def ricci_null_value(conn: WebConnection | TableConnection, ric: dict[tuple[str, str], Expr], tval: Fraction) -> Expr:
    """Ric(V(t), V(t)) at an exact rational t, as one expression, with
    ``ric`` the ``ricci_tensor`` of ``conn``."""
    v = null_curve_at(conn.web, tval)
    return add_iter(mul(e, v.comp(b), v.comp(c)) for (b, c), e in ric.items())


def base_point_values(rng: random.Random, symbols, evaluate):
    """``evaluate`` at a pole-free random base point: 40 attempts in the box
    of numerators -8..8 over denominators 4..12, then 40 in the box of
    numerators -64..64 over 4..12 (|x| <= 16), which reaches webs defined
    only away from the origin."""
    for bound in (8, 64):
        values = _pole_free(
            lambda: {s: Fraction(rng.randint(-bound, bound), rng.randint(4, 12)) for s in symbols},
            evaluate, 40,
        )
        if values is not None:
            return values
    raise RuntimeError("could not sample a pole-free base point")


def extended_coords(web: VeroneseWeb) -> tuple[str, ...]:
    return web.coords + tuple(f"y{i}" for i in range(1, web.k + 1))


def poisson_pencil_components(web: VeroneseWeb, tval: Fraction) -> dict[tuple[str, str], Expr]:
    """Upper-triangular components of Pi(t) = sum_i L_i(t) ^ d/dy_i."""
    comps: dict[tuple[str, str], Expr] = {}
    for i, li in enumerate(lax_tuple(web, tval), start=1):
        for c, e in li.comps.items():
            comps[(c, f"y{i}")] = e
    return comps


def schouten_components(web: VeroneseWeb, tval: Fraction) -> dict[tuple[str, str, str], Expr]:
    """The components (x_a, y_i, y_j), i < j, of [Pi(t), Pi(t)], zeros kept.

    The Schouten bracket of a bivector with itself in coordinates:
    [Pi, Pi]^{abc} = 2 sum_d (Pi^{ad} d_d Pi^{bc} + Pi^{bd} d_d Pi^{ca}
    + Pi^{cd} d_d Pi^{ab}).  Pi^{ab} vanishes unless exactly one of a, b
    is a y, and no component depends on a y, so d runs over the x's and
    Pi^{ad} needs a = y.  A term survives only when the other two indices
    are one x and one y, so every other component is 0.
    """
    pi: dict[tuple[str, str], Expr] = {}  # Pi^{ab}, both orders
    for (a, b), e in poisson_pencil_components(web, tval).items():
        pi[(a, b)], pi[(b, a)] = e, neg(e)

    ys = extended_coords(web)[len(web.coords):]
    out = {}
    for a in web.coords:
        for bi, b in enumerate(ys):
            for c in ys[bi + 1:]:
                terms = []
                for d in web.coords:
                    # the rotations (b, c, a) and (c, a, b); (a, b, c) has Pi^{ad} = 0
                    for (u, v, z) in ((b, c, a), (c, a, b)):
                        p = pi.get((u, d), ZERO)
                        if p is ZERO:
                            continue
                        dd = differentiate(pi.get((v, z), ZERO), d)
                        if dd is ZERO:
                            continue
                        terms.append(mul(p, dd))
                out[(a, b, c)] = mul(rational(2), add_iter(terms))
    return out


def schouten_residuals(
    web: VeroneseWeb,
    tval: Fraction,
    point_samples: int = 10,
    seed: int = 0,
) -> list[float]:
    """|[Pi(t), Pi(t)]| of each nonzero component at random base points."""
    exprs = [e for e in schouten_components(web, tval).values() if e is not ZERO]
    symbols = set()
    for e in exprs:
        symbols.update(free_symbols(e))
    symbols = sorted(symbols, key=lambda s: s.key)
    rng = random.Random(seed)
    out = []

    def evaluate(env):
        # One memo for the point: the components share most of their nodes.
        memo: dict = {}
        return [abs(float(eval_numeric(e, env, memo))) for e in exprs]

    for _ in range(point_samples):
        vals = base_point_values(rng, symbols, evaluate)
        out.extend(vals if vals else [0.0])
    return out


# ---------------------------------------------------------------------------
# Two- and three-forms, for omega(t) ^ d omega(t): reports read the
# Zakharevich criterion from the Hirota residuals and build neither.

@dataclass(frozen=True)
class TwoForm:
    """Coefficients stored for ordered index pairs only."""

    frame: tuple[str, ...]
    comps: dict[tuple[str, str], Expr]

    def __post_init__(self):
        object.__setattr__(self, "comps", {key: e for key, e in self.comps.items() if e is not ZERO})
        order = {c: i for i, c in enumerate(self.frame)}
        for u, v in self.comps:
            if order[u] >= order[v]:
                raise FrameError("two-form keys must be strictly ordered pairs")

    def comp(self, u: str, v: str) -> Expr:
        if u == v:
            return ZERO
        order = self.frame.index
        if order(u) < order(v):
            return self.comps.get((u, v), ZERO)
        return mul(rational(-1), self.comps.get((v, u), ZERO))

    def __call__(self, a: VectorField, b: VectorField) -> Expr:
        terms = []
        for (u, v), w in self.comps.items():
            terms.append(mul(w, sub(mul(a.comp(u), b.comp(v)), mul(a.comp(v), b.comp(u)))))
        return add_iter(terms)


@dataclass(frozen=True)
class ThreeForm:
    frame: tuple[str, ...]
    comps: dict[tuple[str, str, str], Expr]

    def __post_init__(self):
        object.__setattr__(self, "comps", {key: e for key, e in self.comps.items() if e is not ZERO})

    def comp(self, u: str, v: str, w: str) -> Expr:
        return self.comps.get((u, v, w), ZERO)


def exterior_derivative(w: OneForm) -> TwoForm:
    frame = w.frame
    comps = {}
    for i, u in enumerate(frame):
        for v in frame[i + 1:]:
            comps[(u, v)] = sub(differentiate(w.comp(v), u), differentiate(w.comp(u), v))
    return TwoForm(frame, comps)


def wedge3(w: OneForm, eta: TwoForm) -> ThreeForm:
    """Totally antisymmetric coefficients of w wedge eta."""
    if w.frame != eta.frame:
        raise FrameError("form frames differ")
    frame = w.frame
    comps = {}
    n = len(frame)
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                u, v, z = frame[i], frame[j], frame[l]
                comps[(u, v, z)] = add_iter(
                    [mul(w.comp(u), eta.comp(v, z)), mul(w.comp(z), eta.comp(u, v))],
                    [mul(w.comp(v), eta.comp(u, z))],
                )
    return ThreeForm(frame, comps)


# ---------------------------------------------------------------------------
# The spectral tables as they were built before ``paraweb.spectral``: each
# leave-one-out product expanded afresh in ``Fraction``, and integer dot
# products over least common denominators.

def poly_from_roots(roots: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of prod (t - r)."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [Fraction(0)] + coeffs
        for m in range(len(coeffs) - 1):
            coeffs[m] -= r * coeffs[m + 1]
    return coeffs


def omega_table(t: tuple[Fraction, ...]) -> list[list[Fraction]]:
    """W[m][j]: omega_m = sum_j W[m][j] dw/dx_j dx_j."""
    per_j = [poly_from_roots([r for r in t[:-1] if r != tj]) for tj in t[:-1]]
    return [[(t[-1] - tj) * p[m] for tj, p in zip(t, per_j)] for m in range(len(t) - 1)]


def null_dual(t: tuple[Fraction, ...]) -> list[list[Fraction]]:
    """D[j][i] = (-1)^i W[k - i][j] / binom(k, i)."""
    k = len(t) - 2
    w = omega_table(t)
    return [[(-1) ** i * w[k - i][j] / comb(k, i) for i in range(k + 1)] for j in range(k + 1)]


def null_denominators(t: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """den_j = -prod_{l != j} (t_j - t_l) over all k + 2 constants, j <= k."""
    return tuple(-prod(tj - tl for tl in t if tl != tj) for tj in t[:-1])


def null_values(t: tuple[Fraction, ...], s: Fraction, order: int = 0) -> list[Fraction]:
    """c_j(s), or its order-th derivative: (-1)^order k!/(k - order)!
    (t_j - s)^(k - order) / den_j."""
    k = len(t) - 2
    scale = (-1) ** order * factorial(k) // factorial(k - order)
    return [scale * (tj - s) ** (k - order) / den for tj, den in zip(t, null_denominators(t))]


def bracket_h(t: tuple[Fraction, ...], s: Fraction) -> list[Fraction]:
    """H_jl(s) = -D_jl (q_j - q_l) / k!, D_jl = c_j c_l' - c_l c_j'."""
    k = len(t) - 2
    shift = k * s - sum(t[:-1])
    (d0, c), (d1, dc), (d2, q) = map(_integers, (null_values(t, s), null_values(t, s, order=1),
                                                 [(t[-1] - tj) * (shift + tj) for tj in t[:-1]]))
    return [Fraction(-(c[j] * dc[l] - c[l] * dc[j]) * (q[j] - q[l]), k * d0 * d1 * d2)
            for j, l in combinations(range(k + 1), 2)]


def _integers(vec: Sequence[Fraction]) -> tuple[int, list[int]]:
    d = lcm(*(v.denominator for v in vec))
    return d, [v.numerator * (d // v.denominator) for v in vec]


def _matmul(rows: Sequence[Sequence], cols: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    cs = [_integers(col) for col in zip(*cols)]
    return tuple(tuple(Fraction(sum(a * b for a, b in zip(r, c)), dr * dc) for dc, c in cs)
                 for dr, r in map(_integers, rows))


def diagonal_tables(t: tuple[Fraction, ...], start: int):
    """(check, alpha) at the k + 2 integer nodes from ``start`` outside t:
    the Lagrange weights at the last node minus 1 applied to the H rows,
    and D L applied to the first k + 1 of them."""
    *inner, at = nodes = [Fraction(m) for m in islice((m for m in count(start) if m not in t), len(t))]
    hs = [bracket_h(t, s) for s in nodes]
    others = [[r for r in inner if r != n] for n in inner]
    scales = [prod(n - r for r in rest) for n, rest in zip(inner, others)]
    weights = [prod(at - r for r in rest) / d for rest, d in zip(others, scales)]
    lagrange = [[c / d for c in poly_from_roots(rest)] for rest, d in zip(others, scales)]
    return _matmul([weights + [-1]], hs)[0], _matmul(_matmul(null_dual(t), list(zip(*lagrange))), hs[:-1])
