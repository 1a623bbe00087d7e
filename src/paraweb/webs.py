"""Veronese webs: Hirota system, null curve, canonical connections,
Einstein-Weyl data and Bryant forms.

A web on a (k+1)-manifold is presented by a function w(x0..xk) and k+2
pairwise distinct spectral constants t_0..t_{k+1}: the foliation at the
spectral value t_i is ker dx_i and the one at t_{k+1} is ker dw.  The
annihilating one-form of the t-family is polynomial of degree k,

    omega(t) = sum_i (t_{k+1} - t_i) prod_{j != i} (t - t_j) dw/dx_i dx_i,

and w presents a genuine web exactly when the quadratic Hirota system
holds.  Its triples through 0 decide it: every other triple, the
first-order hierarchy, the Lax commutators and omega ^ d omega are
combinations of them (``hirota_verdicts``; ``report.analyze_web``
prints the hierarchy and the commutators as multiples of them).
The null curve V(t) dual to omega(t) is normalised here by
omega(s)(V(t)) = (s - t)^k, which pins down every constant used below.

Spectral-parameter families (omega, V, Lax fields) are handled as
explicit polynomials in t with expression coefficients.  Every
coefficient of omega(t) and V(t) in a coordinate is a rational multiple
of one fixed expression, dw/dx_i for omega and its inverse for V, and
the rationals are tables of the spectral constants (``spectral``).  The
canonical connection uses the same split: V(t) = sum_j c_j(t) e_j with
e_j = (dw/dx_j)^-1 d/dx_j and rational c_j(t), and [e_j, e_l] =
b_jl (e_j - e_l) with b_jl = w_jl / (w_j w_l), so its alpha is a
rational combination of the b_jl whose coefficients depend only on the
spectral constants.

No Christoffel table is built.  Every connection here is kept as the
one-forms that define it on the null frame: alpha for the diagonal one,
f and alpha_tilde for the k = 2 Weyl connection, whose Weyl form is
read from them (``weyl_form``), and the four Bryant forms at k = 3.
Flatness zero-tests the two torsion components a diagonal connection
can have.  ``tests/oracles.py`` builds the tables, the full torsion and
the covariant derivative of the metric as references.

What is built here depends on w and the spectral constants only, takes
no zero tester, and is kept on the web once built.  Only the decisions
take one: ``check_nondegenerate``, ``hirota_verdicts`` and
``flatness_verdict``.  The connections and the Bryant forms are those of
a Hirota solution, so a caller decides the Hirota system first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from . import spectral
from .expr import (
    Expr,
    ZERO,
    add_iter,
    differentiate,
    div,
    mul,
    neg,
    pow_int,
    rational,
    sub,
)
from .jet import OneForm, VectorField, lie_bracket
from .parser import Context, parse_expr
from .zerotest import Verdict, ZeroTester

__all__ = [
    "WebError",
    "DegenerateWebError",
    "VeroneseWeb",
    "NullCurve",
    "WebConnection",
    "BryantForms",
    "web_context",
    "make_web",
    "check_nondegenerate",
    "omega_coefficient_forms",
    "null_curve",
    "hirota_residuals",
    "hirota_verdicts",
    "canonical_connection",
    "flatness_verdict",
    "conformal_metric",
    "weyl_form",
    "bryant_forms",
]


class WebError(ValueError):
    pass


class DegenerateWebError(WebError):
    """Some partial dw/dx_i vanishes identically: foliations not transverse."""


@dataclass(frozen=True)
class VeroneseWeb:
    k: int
    context: Context
    w: Expr
    t_params: tuple[Fraction, ...]
    # Objects built once per web instance (``_once``).
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise WebError("web dimension parameter k must be at least 1")
        if len(self.t_params) != self.k + 2:
            raise WebError(f"need {self.k + 2} spectral constants, got {len(self.t_params)}")
        if len(set(self.t_params)) != len(self.t_params):
            raise WebError("spectral constants must be pairwise distinct")

    @property
    def coords(self) -> tuple[str, ...]:
        return self.context.coords

    def triples(self) -> list[tuple[int, int, int]]:
        k = self.k
        return [
            (i, j, l)
            for i in range(k + 1)
            for j in range(i + 1, k + 1)
            for l in range(j + 1, k + 1)
        ]

    def a(self, i: int, j: int, l: int) -> Fraction:
        t = self.t_params
        return (t[i] - t[j]) * (t[self.k + 1] - t[l])

    def a_i(self, i: int) -> Fraction:
        t = self.t_params
        return (t[self.k + 1] - t[0]) / (t[self.k + 1] - t[i])

    def dw(self, i: int) -> Expr:
        return differentiate(self.w, f"x{i}")

    def dw2(self, i: int, j: int) -> Expr:
        return differentiate(self.dw(i), f"x{j}")


def web_context(k: int) -> Context:
    coords = tuple(f"x{i}" for i in range(k + 1))
    return Context(coords=coords, functions={"w": coords})


def make_web(k: int, w: str | Expr, t_params: tuple[Fraction, ...] | list | None = None) -> VeroneseWeb:
    """A web candidate, w parsed when it is a string.

    Spectral constants default to (0, 1, ..., k+1).  Whether the
    presentation is degenerate is sampled, so ``check_nondegenerate``
    decides it apart.
    """
    ctx = web_context(k)
    if isinstance(w, str):
        w = parse_expr(w, ctx)
    if t_params is None:
        t_params = tuple(Fraction(n) for n in range(k + 2))
    else:
        t_params = tuple(Fraction(t) for t in t_params)
    return VeroneseWeb(k, ctx, w, t_params)


def check_nondegenerate(web: VeroneseWeb, zero: ZeroTester) -> None:
    """Raise ``DegenerateWebError`` unless every dw/dx_i tests nonzero.

    Where some dw/dx_i vanishes identically the would-be foliations are
    not pairwise transverse, and the presentation is rejected rather than
    regularised.
    """
    for i in range(web.k + 1):
        if zero.verdict(web.dw(i)) is not Verdict.NONZERO:
            raise DegenerateWebError(f"dw/dx{i} vanishes at generic points")


# ---------------------------------------------------------------------------
# omega(t) and the dual null curve

def _once(web: VeroneseWeb, key: str, build):
    """``build(web)``, made on the first call with ``key`` for this web only."""
    got = web._derived.get(key)
    if got is None:
        got = web._derived[key] = build(web)
    return got


def omega_coefficient_forms(web: VeroneseWeb) -> tuple[OneForm, ...]:
    """One-forms omega_0..omega_k with omega(t) = sum_m t^m omega_m."""
    return _once(web, "omega", _omega_coefficient_forms)


def _omega_coefficient_forms(web: VeroneseWeb) -> tuple[OneForm, ...]:
    return tuple(OneForm(web.coords, {f"x{j}": mul(rational(c), web.dw(j)) for j, c in enumerate(row) if c})
                 for row in spectral._omega_table(web.t_params))


@dataclass(frozen=True)
class NullCurve:
    """The polynomial family V(t) = V_0 + t V_1 + ... + t^k V_k dual to omega.

    Normalised so that omega(s)(V(t)) = (s - t)^k identically; hence
    omega^(i)(t)(V^(j)(t)) vanishes for i + j < k and equals (-1)^j k!
    when i + j = k, and omega_m(V_i) is (-1)^i binom(k, i) for m = k - i
    and 0 otherwise: the coframe eta_0..eta_k dual to V_0..V_k is
    (-1)^i omega_{k-i} / binom(k, i), read from ``omega_coefficient_forms``,
    and d/dx_b = sum_i eta_i(d/dx_b) V_i.
    """

    web: VeroneseWeb
    fields: tuple[VectorField, ...] = field(init=False)
    coframe: tuple[OneForm, ...] = field(init=False)

    def __post_init__(self):
        web = self.web
        object.__setattr__(self, "fields", tuple(
            VectorField(web.coords, {f"x{j}": mul(rational(c), pow_int(web.dw(j), -1)) for j, c in enumerate(row)})
            for row in spectral._null_coefficients(web.t_params)))
        omegas, k = omega_coefficient_forms(web), web.k
        object.__setattr__(self, "coframe", tuple(
            omegas[k - i].scaled(rational(Fraction((-1) ** i, comb(k, i)))) for i in range(k + 1)))


def null_curve(web: VeroneseWeb) -> NullCurve:
    return _once(web, "null_curve", NullCurve)


# ---------------------------------------------------------------------------
# Hirota system

def hirota_residuals(web: VeroneseWeb) -> dict[tuple[int, int, int], Expr]:
    """Residual of the quadratic Hirota equation per index triple, in the
    order of ``VeroneseWeb.triples``."""
    return _once(web, "hirota", _hirota_residuals)


def _hirota_residuals(web: VeroneseWeb) -> dict:
    out = {}
    for (i, j, l) in web.triples():
        terms = []
        for p, q, r in ((i, j, l), (j, l, i), (l, i, j)):
            # a separable web has dw2(p, q) = 0: its term is skipped, not built
            d2 = web.dw2(p, q)
            if d2 is not ZERO:
                terms.append(mul(rational(web.a(p, q, r)), d2, web.dw(r)))
        out[(i, j, l)] = add_iter(terms)
    return out


def hirota_verdicts(web: VeroneseWeb, zero: ZeroTester) -> dict[tuple[int, int, int], Verdict]:
    """The verdict of each Hirota residual, on a web that passed
    ``check_nondegenerate``.

    With T = t_{k+1}, w_0 (t_0 - T) H_ijl = (t_l - T) w_l H_0ij
    - (t_j - T) w_j H_0il + (t_i - T) w_i H_0jl, and w_0 != 0: a triple
    without 0 vanishes with its three triples through 0, and is tested
    only when one of them is not zero.
    """
    out = {}
    for (i, j, l), e in hirota_residuals(web).items():
        through_0 = ((0, i, j), (0, i, l), (0, j, l))
        if i and all(out[key] is Verdict.ZERO for key in through_0):
            out[(i, j, l)] = Verdict.ZERO
        else:
            out[(i, j, l)] = zero.verdict(e)
    return out


# ---------------------------------------------------------------------------
# Connections

@dataclass(frozen=True)
class WebConnection:
    """A paraconformal connection attached to a web.

    ``kind`` is "diagonal" for the canonical connection at k = 1 and
    k > 2, nabla_{d/dx_a} d/dx_b = (w_ab / w_b + alpha_a) d/dx_b with
    w_b = dw/dx_b, whose alpha is read from the tables of
    ``spectral._diagonal_tables``; "weyl" for the unique torsion-free
    Einstein-Weyl connection at k = 2, which records only the scalar f
    and the t-free part alpha_tilde of alpha(t): with beta(t) = f omega(t),
    nabla V(t) = (alpha_tilde - 2 t f omega_2) V(t) + beta(t) V'(t) on the
    null curve.  Reports print those forms and ``weyl_form`` read from
    them; ``christoffel`` serves the diagonal kind only, and
    ``tests/oracles.py`` builds the Weyl connection's Christoffel table.
    """

    web: VeroneseWeb
    kind: str
    alpha: OneForm | None = None
    f: Expr | None = None
    alpha_tilde: OneForm | None = None

    def christoffel(self, a: str, b: str, c: str) -> Expr:
        """Coefficient of d/dx_c in nabla_{d/dx_a} d/dx_b (diagonal kind)."""
        if c != b:
            return ZERO
        ia, ib = int(a[1:]), int(b[1:])
        d2 = self.web.dw2(ia, ib)
        if d2 is ZERO:
            return self.alpha.comp(a)
        return div(d2, self.web.dw(ib)) + self.alpha.comp(a)


def _bracket_sum(coeffs: Sequence[Fraction], basis: list[Expr]) -> Expr:
    return add_iter(mul(rational(c), b) for c, b in zip(coeffs, basis) if c and b is not ZERO)


def canonical_connection(web: VeroneseWeb) -> WebConnection:
    """The canonical totally geodesic paraconformal connection of a web.

    Requires w to solve the Hirota system (``hirota_verdicts``).  For
    k = 1 and k > 2 the connection is diagonal and alpha is the unique
    one-form making T(V(t), V'(t)) proportional to V(t) for all t; it is
    recovered by interpolating the bracket function h(t), of degree at
    most k on a web, at k+1 exact rational nodes.  For k = 2 the result
    is the unique torsion-free Weyl connection of the induced conformal
    Lorentzian structure.  Built once per web.
    """
    return _once(web, "connection", _weyl_connection if web.k == 2 else _diagonal_connection)


def _diagonal_connection(web: VeroneseWeb) -> WebConnection:
    basis = [ZERO if (d2 := web.dw2(j, l)) is ZERO else mul(d2, pow_int(web.dw(j), -1), pow_int(web.dw(l), -1))
             for j, l in combinations(range(web.k + 1), 2)]
    alpha = spectral._diagonal_tables(web.t_params)
    comps = {f"x{j}": mul(web.dw(j), _bracket_sum(row, basis)) for j, row in enumerate(alpha)}
    return WebConnection(web, "diagonal", alpha=OneForm(web.coords, comps))


def flatness_verdict(web: VeroneseWeb, zero: ZeroTester) -> bool:
    """True iff the canonical connection of the web is torsion-free (k > 2);
    w must solve the Hirota system.

    Equivalent to d/dx_i (dw/dx_j / dw/dx_l) = 0 for all i outside
    {j, l}, i.e. to w being equivalent to an additively separable
    function of the coordinates.  The connection is diagonal, so for
    a < b the torsion T(d/dx_a, d/dx_b) has only two components that can
    be nonzero: -Gamma(b, a, a) along d/dx_a and Gamma(a, b, b) along
    d/dx_b.
    """
    if web.k <= 2:
        raise WebError("flatness via torsion of the canonical connection needs k > 2")
    conn = canonical_connection(web)
    coords = web.coords
    comps = (e
             for ia, a in enumerate(coords) for b in coords[ia + 1:]
             for e in (sub(ZERO, conn.christoffel(b, a, a)), conn.christoffel(a, b, b)))
    return all(e is ZERO or zero.verdict(e) is Verdict.ZERO for e in comps)


# ---------------------------------------------------------------------------
# k = 2: Einstein-Weyl structure

def _weyl_scalar_f(web: VeroneseWeb) -> Expr:
    """The scalar f with beta(t) = f omega(t) for the k = 2 Weyl connection.

    The sign is tied to the null-curve normalisation omega(s)(V(t)) =
    (s - t)^2 used throughout this module; it is fixed by requiring the
    assembled connection to be torsion-free (cross-checked in the test
    suite against the Levi-Civita construction).
    """
    t = web.t_params
    lead = Fraction(-1, 4) / ((t[3] - t[1]) * (t[0] - t[2]))
    return mul(
        rational(lead),
        sub(
            div(web.dw2(0, 1), mul(web.dw(0), web.dw(1))),
            div(web.dw2(1, 2), mul(web.dw(1), web.dw(2))),
        ),
    )


def _weyl_alpha_tilde(web: VeroneseWeb) -> OneForm:
    t = web.t_params
    comps = {}
    for (i, j, l) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        cj = Fraction(-1, 4) * (t[j] - 3 * t[l]) / (t[j] - t[l])
        cl = Fraction(-1, 4) * (t[l] - 3 * t[j]) / (t[l] - t[j])
        comps[f"x{i}"] = add_iter(
            [
                mul(rational(cj), div(web.dw2(i, j), web.dw(j))),
                mul(rational(cl), div(web.dw2(i, l), web.dw(l))),
            ]
        )
    return OneForm(web.coords, comps)


def _weyl_connection(web: VeroneseWeb) -> WebConnection:
    # alpha_tilde carries a -2 f omega_1 counterterm relative to the bare
    # cyclic-sum formula: the t-free part of alpha(t) depends on the
    # normalisation of V(t), and ours is pinned by omega(s)(V(t)) = (s-t)^2.
    f = _weyl_scalar_f(web)
    omega1 = omega_coefficient_forms(web)[1]
    alpha_tilde = _weyl_alpha_tilde(web).plus(omega1.scaled(mul(rational(-2), f)))
    return WebConnection(web, "weyl", f=f, alpha_tilde=alpha_tilde)


def conformal_metric(web: VeroneseWeb) -> dict[tuple[str, str], Expr]:
    """Representative of the induced conformal Lorentzian metric (k = 2).

    The discriminant form of the annihilating pencil: for omega(t) =
    omega0 + t omega1 + t^2 omega2,

        g = omega1 (x) omega1 - 2 omega0 (x) omega2 - 2 omega2 (x) omega0,

    so g(Y, Y) is the discriminant of t -> omega(t)(Y) and the null cone
    of g is exactly the cone of web null directions.
    """
    if web.k != 2:
        raise WebError("the conformal metric is the k = 2 structure")
    om0, om1, om2 = omega_coefficient_forms(web)
    out = {}
    for ci, c in enumerate(web.coords):
        for d in web.coords[ci:]:
            val = sub(
                mul(om1.comp(c), om1.comp(d)),
                add_iter(
                    [
                        mul(rational(2), om0.comp(c), om2.comp(d)),
                        mul(rational(2), om2.comp(c), om0.comp(d)),
                    ]
                ),
            )
            out[(c, d)] = val
    return out


def weyl_form(conn: WebConnection) -> OneForm:
    """The Weyl form phi, nabla g = phi (x) g, of the k = 2 Weyl connection.

    With beta(t) = f omega(t) and alpha(t) = alpha_tilde - 2 t beta_2,
    and the constant g(V(s), V(t)) = -2 (s - t)^2 of the
    ``conformal_metric``,

        (nabla g)(V(s), V(t)) = 2 (s - t)^2 (alpha(s) + alpha(t))
                                + 4 (s - t) (beta(s) - beta(t))
                              = 4 (s - t)^2 (alpha_tilde + beta_1),

    so phi = -2 (alpha_tilde + f omega_1), for every w.
    """
    omega1 = omega_coefficient_forms(conn.web)[1]
    return conn.alpha_tilde.plus(omega1.scaled(conn.f)).scaled(rational(-2))


# ---------------------------------------------------------------------------
# Bryant forms (k = 3)

@dataclass(frozen=True)
class BryantForms:
    """Data of the unique torsion-free paraconformal connection at k = 3.

    c[(i, j, l)] are the structure functions [V_i, V_j] = sum_l c V_l in
    the null frame; eta is the frame dual to (V_0..V_3); the one-forms
    beta0, beta1, beta2 and alpha satisfy nabla V(t) = (alpha - 3 t
    beta2) V(t) + (beta0 + t beta1 + t^2 beta2) V'(t) with vanishing
    torsion.  Reports print the four forms; the tests rebuild the
    connection's Christoffel table from them to check the torsion.
    """

    web: VeroneseWeb
    c: dict[tuple[int, int, int], Expr]
    eta: tuple[OneForm, ...]
    beta0: OneForm
    beta1: OneForm
    beta2: OneForm
    alpha: OneForm


def bryant_forms(web: VeroneseWeb) -> BryantForms:
    """Structure functions and connection forms of the Bryant connection of
    a Hirota solution (``hirota_verdicts``) at k = 3.  Built once per web."""
    if web.k != 3:
        raise WebError("the Bryant connection construction is the k = 3 case")
    return _once(web, "bryant", _bryant_forms)


def _bryant_forms(web: VeroneseWeb) -> BryantForms:
    nc = null_curve(web)
    eta = nc.coframe
    c: dict[tuple[int, int, int], Expr] = {}
    for i in range(4):
        for j in range(i + 1, 4):
            br = lie_bracket(nc.fields[i], nc.fields[j])
            for l in range(4):
                c[(i, j, l)] = eta[l](br)

    def cc(i: int, j: int, l: int) -> Expr:
        if i == j:
            return ZERO
        if i < j:
            return c[(i, j, l)]
        return neg(c[(j, i, l)])

    third = rational(Fraction(1, 3))
    beta0 = (
        eta[0].scaled(mul(third, cc(0, 2, 3)))
        .plus(eta[1].scaled(mul(third, cc(1, 2, 3))))
        .plus(eta[2].scaled(sub(mul(rational(2), cc(0, 3, 2)), cc(0, 2, 1))))
        .plus(eta[3].scaled(neg(cc(0, 3, 1))))
    )
    beta1 = (
        eta[0].scaled(sub(cc(0, 3, 3), cc(0, 2, 2)))
        .plus(eta[1].scaled(
            add_iter([mul(third, cc(0, 1, 0)), mul(third, cc(1, 3, 3))], [cc(0, 3, 2)])))
        .plus(eta[2].scaled(
            add_iter([mul(third, cc(2, 3, 3)), mul(third, cc(0, 2, 0))], [cc(0, 3, 1)])))
        .plus(eta[3].scaled(sub(cc(0, 3, 0), cc(1, 3, 1))))
    )
    beta2 = (
        eta[0].scaled(neg(cc(0, 3, 2)))
        .plus(eta[1].scaled(sub(mul(rational(2), cc(0, 3, 1)), cc(1, 3, 2))))
        .plus(eta[2].scaled(mul(third, cc(1, 2, 0))))
        .plus(eta[3].scaled(mul(third, cc(1, 3, 0))))
    )
    alpha = (
        eta[0].scaled(sub(mul(rational(3), cc(0, 2, 2)), mul(rational(2), cc(0, 3, 3))))
        .plus(eta[1].scaled(sub(mul(rational(3), cc(0, 3, 2)), cc(0, 1, 0))))
        .plus(eta[2].scaled(neg(cc(0, 2, 0))))
        .plus(eta[3].scaled(neg(cc(0, 3, 0))))
    )
    return BryantForms(web, c, eta, beta0, beta1, beta2, alpha)

