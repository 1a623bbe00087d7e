"""Veronese webs: Hirota system, Lax tuple, canonical connections,
Einstein-Weyl data, Bryant forms and Ricci-null samples.

A web on a (k+1)-manifold is presented by a function w(x0..xk) and k+2
pairwise distinct spectral constants t_0..t_{k+1}: the foliation at the
spectral value t_i is ker dx_i and the one at t_{k+1} is ker dw.  The
annihilating one-form of the t-family is polynomial of degree k,

    omega(t) = sum_i (t_{k+1} - t_i) prod_{j != i} (t - t_j) dw/dx_i dx_i,

and w presents a genuine web exactly when the quadratic Hirota system
holds.  The null curve V(t) dual to omega(t) is normalised here by
omega(s)(V(t)) = (s - t)^k, which pins down every constant used below.

Spectral-parameter families (omega, V, Lax fields) are handled as
explicit polynomials in t with expression coefficients; evaluation at
rational spectral values is exact.  Every coefficient of
omega(t) and V(t) in a coordinate is a rational multiple of one fixed
expression, dw/dx_i for omega and its inverse for V, so a value at t is
kept factored as (rational in t) * (that expression), never distributed
into a sum.  The canonical connection uses the same split: V(t) =
sum_j c_j(t) e_j with e_j = (dw/dx_j)^-1 d/dx_j and rational c_j(t), and
[e_j, e_l] = b_jl (e_j - e_l) with b_jl = w_jl / (w_j w_l), so its alpha
is a rational combination of the b_jl whose coefficients depend only on
the spectral constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, islice
from math import comb, factorial, lcm, prod
from typing import Sequence

from .expr import (
    ONE,
    RAT,
    Expr,
    ZERO,
    _coeff_mono,
    add_iter,
    differentiate,
    div,
    eval_numeric,
    free_symbols,
    mul,
    neg,
    pow_int,
    rational,
    sub,
)
from .jet import OneForm, VectorField, lie_bracket
from .parser import Context, parse_expr
from .zerotest import DEFAULT_TESTER, Verdict, ZeroTester, _pole_free

__all__ = [
    "WebError",
    "DegenerateWebError",
    "NotAWebError",
    "InterpolationError",
    "VeroneseWeb",
    "NullCurve",
    "WebConnection",
    "BryantForms",
    "web_context",
    "make_web",
    "omega_at",
    "omega_coefficient_forms",
    "null_curve",
    "hirota_residuals",
    "is_hirota_solution",
    "eq1_residuals",
    "lax_tuple",
    "lax_commutator_residuals",
    "canonical_connection",
    "torsion",
    "flatness_verdict",
    "conformal_metric",
    "weyl_form_from_connection",
    "weyl_compatibility_residuals",
    "bryant_torsion_residuals",
    "ricci_tensor",
    "ricci_null_residuals",
    "bryant_forms",
    "zakharevich_verdict",
]


class WebError(ValueError):
    pass


class DegenerateWebError(WebError):
    """Some partial dw/dx_i vanishes identically: foliations not transverse."""


class NotAWebError(WebError):
    """An operation requiring a Hirota solution got a non-solution."""


class InterpolationError(WebError):
    """The bracket function h(t) failed its polynomial degree bound."""


@dataclass(frozen=True)
class VeroneseWeb:
    k: int
    context: Context
    w: Expr
    t_params: tuple[Fraction, ...]
    # Objects built once per web instance, or once per web and zero tester.
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

    def a_hierarchy(self, i: int) -> Fraction:
        """Coefficient of the first-order hierarchy form equivalent to the
        Hirota system: (t_i - t_0) / (t_{k+1} - t_i)."""
        t = self.t_params
        return (t[i] - t[0]) / (t[self.k + 1] - t[i])

    def dw(self, i: int) -> Expr:
        return differentiate(self.w, f"x{i}")

    def dw2(self, i: int, j: int) -> Expr:
        return differentiate(self.dw(i), f"x{j}")


def web_context(k: int) -> Context:
    coords = tuple(f"x{i}" for i in range(k + 1))
    return Context(coords=coords, functions={"w": coords})


def make_web(
    k: int,
    w: str | Expr,
    t_params: tuple[Fraction, ...] | list | None = None,
    zero: ZeroTester = DEFAULT_TESTER,
) -> VeroneseWeb:
    """Build a web candidate, rejecting degenerate presentations.

    Spectral constants default to (0, 1, ..., k+1).  Degenerate means
    some dw/dx_i vanishes identically (sampled): the would-be foliations
    are not pairwise transverse, and the presentation is rejected rather
    than regularised.
    """
    ctx = web_context(k)
    if isinstance(w, str):
        w = parse_expr(w, ctx)
    if t_params is None:
        t_params = tuple(Fraction(n) for n in range(k + 2))
    else:
        t_params = tuple(Fraction(t) for t in t_params)
    web = VeroneseWeb(k, ctx, w, t_params)
    for i in range(k + 1):
        if zero.verdict(web.dw(i)) is not Verdict.NONZERO:
            raise DegenerateWebError(f"dw/dx{i} vanishes at generic points")
    return web


# ---------------------------------------------------------------------------
# omega(t) and the dual null curve

def _poly_from_roots(roots: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of prod (t - r)."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [Fraction(0)] + coeffs
        for m in range(len(coeffs) - 1):
            coeffs[m] -= r * coeffs[m + 1]
    return coeffs


def _omega_table(t: tuple[Fraction, ...]) -> list[list[Fraction]]:
    """W[m][j]: omega_m = sum_j W[m][j] dw/dx_j dx_j."""
    per_j = [_poly_from_roots([r for r in t[:-1] if r != tj]) for tj in t[:-1]]
    return [[(t[-1] - tj) * p[m] for tj, p in zip(t, per_j)] for m in range(len(t) - 1)]


def _null_dual(t: tuple[Fraction, ...]) -> list[list[Fraction]]:
    """D[j][i] with d/dx_j = dw/dx_j sum_i D[j][i] V_i, the inverse of the
    null-curve coefficient matrix.  omega(s)(V(t)) = (s - t)^k makes
    omega_m(V_i) = (-1)^i binom(k, i) when m = k - i and 0 otherwise, so
    the coframe dual to V_i is (-1)^i omega_{k-i} / binom(k, i)."""
    k = len(t) - 2
    w = _omega_table(t)
    return [[(-1) ** i * w[k - i][j] / comb(k, i) for i in range(k + 1)] for j in range(k + 1)]


def _once(web: VeroneseWeb, key, build, *args):
    """``build(web, *args)``, made on the first call with ``key`` for this web only."""
    got = web._derived.get(key)
    if got is None:
        got = web._derived[key] = build(web, *args)
    return got


def omega_coefficient_forms(web: VeroneseWeb) -> tuple[OneForm, ...]:
    """One-forms omega_0..omega_k with omega(t) = sum_m t^m omega_m."""
    return _once(web, "omega", _omega_coefficient_forms)


def _omega_coefficient_forms(web: VeroneseWeb) -> tuple[OneForm, ...]:
    return tuple(OneForm(web.coords, {f"x{j}": mul(rational(c), web.dw(j)) for j, c in enumerate(row) if c})
                 for row in _omega_table(web.t_params))


def _spectral_weights(count: int, tval: Fraction, order: int) -> list[tuple[int, Fraction]]:
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


def _spectral_at(coeffs: Sequence, tval: Fraction, order: int):
    """The order-th t-derivative of sum_m t^m coeffs[m] (fields or forms) at
    an exact rational t.

    In each coordinate x, every degree's component is q_m * base_x for one
    base_x shared by all degrees (dw/dx_i for omega, (dw/dx_i)^-1 for V),
    so the component at t is mul(rational(sum_m weight_m q_m), base_x).
    """
    weights = _spectral_weights(len(coeffs), tval, order)
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
    return _spectral_at(omega_coefficient_forms(web), tval, order)


@dataclass(frozen=True)
class NullCurve:
    """The polynomial family V(t) = V_0 + t V_1 + ... + t^k V_k dual to omega.

    Normalised so that omega(s)(V(t)) = (s - t)^k identically; hence
    omega^(i)(t)(V^(j)(t)) vanishes for i + j < k and equals (-1)^j k!
    when i + j = k, and omega_m(V_i) is (-1)^i binom(k, i) for m = k - i
    and 0 otherwise: the coframe dual to V_0..V_k is (-1)^i omega_{k-i} /
    binom(k, i), read from omega's coefficients (``_null_dual``).
    """

    web: VeroneseWeb
    fields: tuple[VectorField, ...] = field(init=False)
    _matrix: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        web = self.web
        k, t = web.k, web.t_params
        denominators = _null_denominators(t)
        matrix = tuple(
            tuple(Fraction((-1) ** i * comb(k, i)) * t[j] ** (k - i) / denominators[j] for j in range(k + 1))
            for i in range(k + 1)
        )
        fields = tuple(
            VectorField(web.coords, {f"x{j}": mul(rational(c), pow_int(web.dw(j), -1))
                                     for j, c in enumerate(row)})
            for row in matrix
        )
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "fields", fields)

    def coefficient_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rational parts r[i][j]: V_i = sum_j r[i][j] (dw/dx_j)^-1 d/dx_j.

        Computed once per null curve; the rows are immutable."""
        return self._matrix

    def at(self, tval: Fraction, order: int = 0) -> VectorField:
        """V(t), or its order-th t-derivative, at an exact rational t."""
        return _spectral_at(self.fields, tval, order)


def null_curve(web: VeroneseWeb) -> NullCurve:
    return _once(web, "null_curve", NullCurve)


@lru_cache(maxsize=32)
def _null_denominators(t: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """den_j = (t_{k+1} - t_j) prod_{l <= k, l != j} (t_j - t_l), for j <= k:
    that is, -prod_{l != j} (t_j - t_l) over all k + 2 constants."""
    return tuple(-prod(tj - tl for tl in t if tl != tj) for tj in t[:-1])


def _null_values(t: tuple[Fraction, ...], s: Fraction, order: int = 0) -> list[Fraction]:
    """c_j(s), or its order-th derivative, where V(s) = sum_j c_j(s) e_j and
    e_j = (dw/dx_j)^-1 d/dx_j.  With r the coefficient matrix, c_j(s) =
    sum_i s^i r[i][j] = (t_j - s)^k / den_j, and its order-th derivative
    (order <= k) is (-1)^order k!/(k - order)! (t_j - s)^(k - order) / den_j.
    """
    k = len(t) - 2
    scale = (-1) ** order * factorial(k) // factorial(k - order)
    return [scale * (tj - s) ** (k - order) / den for tj, den in zip(t, _null_denominators(t))]


# ---------------------------------------------------------------------------
# Hirota system and Lax tuple

def hirota_residuals(
    web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER
) -> dict[tuple[int, int, int], tuple[Expr, Verdict]]:
    """Residual of the quadratic Hirota equation per index triple; one shared dict per tester."""
    return _once(web, ("hirota", zero), _hirota_residuals, zero)


def _hirota_residuals(web: VeroneseWeb, zero: ZeroTester) -> dict:
    out = {}
    for (i, j, l) in web.triples():
        terms = []
        for p, q, r in ((i, j, l), (j, l, i), (l, i, j)):
            # a separable web has dw2(p, q) = 0: its term is skipped, not built
            d2 = web.dw2(p, q)
            if d2 is not ZERO:
                terms.append(mul(rational(web.a(p, q, r)), d2, web.dw(r)))
        e = add_iter(terms)
        out[(i, j, l)] = (e, zero.verdict(e))
    return out


def is_hirota_solution(web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER) -> bool:
    return all(v is Verdict.ZERO for _, v in hirota_residuals(web, zero).values())


def eq1_residuals(
    web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER
) -> dict[tuple[int, int], tuple[Expr, Verdict]]:
    """First-order form of the integrable hierarchy, one residual per pair.

    Uses the hierarchy coefficients a_hirarchy(i) = (t_i - t_0) /
    (t_{k+1} - t_i): with those, the residual of the pair (i, j) is a
    constant multiple of the Hirota residual of the triple (0, i, j).
    """
    out = {}
    d0 = web.dw(0)
    for i in range(1, web.k + 1):
        for j in range(i + 1, web.k + 1):
            ai, aj = rational(web.a_hierarchy(i)), rational(web.a_hierarchy(j))
            # a term with a zero second derivative is skipped, not built
            terms = [(sub(ai, aj), d0, web.dw2(i, j)), (aj, web.dw(i), web.dw2(j, 0))]
            minus = [(ai, web.dw(j), web.dw2(i, 0))]
            e = add_iter(
                (mul(*t) for t in terms if t[2] is not ZERO),
                (mul(*t) for t in minus if t[2] is not ZERO),
            )
            out[(i, j)] = (e, zero.verdict(e))
    return out


def _lax_pencil(web: VeroneseWeb) -> list[tuple[VectorField, VectorField]]:
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
    return [base.plus(direction.scaled(t)) for base, direction in _lax_pencil(web)]


def lax_commutator_residuals(
    web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER
) -> dict[tuple[int, int, str, int], tuple[Expr, Verdict]]:
    """Coefficients of [L_i, L_j] as polynomials in t, keyed
    (i, j, coordinate, t-degree), each with a verdict."""
    out = {}
    parts = _lax_pencil(web)
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
                    out[(i, j, c, deg)] = (e, zero.verdict(e))
    return out


# ---------------------------------------------------------------------------
# Connections

@dataclass(frozen=True)
class WebConnection:
    """A paraconformal connection attached to a web.

    ``kind`` is "diagonal" for the canonical connection
    nabla d/dx_i = (d(dw/dx_i)/(dw/dx_i) + alpha) (x) d/dx_i (cases k = 1
    and k > 2), "weyl" for the unique torsion-free Einstein-Weyl
    connection at k = 2, which also records the scalar f (beta(t) =
    f * omega(t)) and the t-free part alpha_tilde of alpha(t), or
    "bryant" for the k = 3 connection of ``bryant_forms``.  The last two
    carry their Christoffel symbols as a table.
    """

    web: VeroneseWeb
    kind: str
    alpha: OneForm | None = None
    f: Expr | None = None
    alpha_tilde: OneForm | None = None
    christoffel_table: dict[tuple[str, str, str], Expr] | None = None

    def christoffel(self, a: str, b: str, c: str) -> Expr:
        """Coefficient of d/dx_c in nabla_{d/dx_a} d/dx_b."""
        if self.christoffel_table is not None:
            return self.christoffel_table.get((a, b, c), ZERO)
        if c != b:
            return ZERO
        ia, ib = int(a[1:]), int(b[1:])
        d2 = self.web.dw2(ia, ib)
        if d2 is ZERO:
            return self.alpha.comp(a)
        return div(d2, self.web.dw(ib)) + self.alpha.comp(a)


def _spectral_nodes(t: tuple[Fraction, ...], n: int, start: int = 0) -> list[Fraction]:
    """The first n integers from ``start`` outside the spectral set t."""
    return [Fraction(m) for m in islice((m for m in count(start) if m not in t), n)]


def _bracket_h(t: tuple[Fraction, ...], s: Fraction) -> list[Fraction]:
    """H_jl(s) for (j, l) in ``combinations(range(k + 1), 2)``, where
    [V(s), V'(s)] = h(s) V'(s) mod V(s) and h(s) = sum H_jl(s) b_jl.

    [V(s), V'(s)] = sum D_jl(s) b_jl (e_j - e_l) with D_jl = c_j c_l' - c_l c_j'.
    h is read off through omega^(k-1)(s), which is -k! on V'(s), 0 on V(s)
    and q_j(s) = (t_{k+1} - t_j) (k-1)! (k s - sum_{m <= k, m != j} t_m) on
    e_j, so H_jl = -D_jl (q_j - q_l) / k!.
    """
    k = len(t) - 2
    shift = k * s - sum(t[:-1])
    # c_j, c_j' and q_j / (k-1)! (so the k! becomes k), each as integers
    # over one denominator
    (d0, c), (d1, dc), (d2, q) = map(_integers, (_null_values(t, s), _null_values(t, s, order=1),
                                                 [(t[-1] - tj) * (shift + tj) for tj in t[:-1]]))
    return [Fraction(-(c[j] * dc[l] - c[l] * dc[j]) * (q[j] - q[l]), k * d0 * d1 * d2)
            for j, l in combinations(range(k + 1), 2)]


def _integers(vec: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, n) with vec[i] = n[i] / d for the least common denominator d."""
    d = lcm(*(v.denominator for v in vec))
    return d, [v.numerator * (d // v.denominator) for v in vec]


def _matmul(rows: Sequence[Sequence], cols: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    """The exact matrix product, each entry one integer dot product."""
    cs = [_integers(col) for col in zip(*cols)]
    return tuple(tuple(Fraction(sum(a * b for a, b in zip(r, c)), dr * dc) for dc, c in cs)
                 for dr, r in map(_integers, rows))


@lru_cache(maxsize=32)
def _diagonal_tables(t: tuple[Fraction, ...], start: int):
    """(check, alpha), coefficients over the b_jl of ``_bracket_h``, for the
    k + 2 nodes from ``start``.  check is the interpolant of h through the
    other nodes, at the last node, minus h there: zero when h has degree
    at most k.  alpha[j] is alpha_j / (dw/dx_j): alpha(V(s)) = h(s) at the
    first k + 1 nodes is the rational system N[s][j] = c_j(s), so
    alpha_j / (dw/dx_j) is (N^-1 h)_j.  N[n][j] = sum_i s_n^i r[i][j] with
    r the null-curve coefficient matrix, so N^-1 = D L with D of
    ``_null_dual`` and L[i][n] the s^i coefficient of node n's Lagrange
    basis polynomial.
    """
    *inner, at = nodes = _spectral_nodes(t, len(t), start)
    hs = [_bracket_h(t, s) for s in nodes]
    others = [[r for r in inner if r != n] for n in inner]
    scales = [prod(n - r for r in rest) for n, rest in zip(inner, others)]
    weights = [prod(at - r for r in rest) / d for rest, d in zip(others, scales)]
    lagrange = [[c / d for c in _poly_from_roots(rest)] for rest, d in zip(others, scales)]
    return _matmul([weights + [-1]], hs)[0], _matmul(_matmul(_null_dual(t), list(zip(*lagrange))), hs[:-1])


def _bracket_sum(coeffs: Sequence[Fraction], basis: list[Expr]) -> Expr:
    return add_iter(mul(rational(c), b) for c, b in zip(coeffs, basis) if c and b is not ZERO)


def canonical_connection(web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER) -> WebConnection:
    """The canonical totally geodesic paraconformal connection of a web.

    Requires the Hirota residuals to vanish.  For k = 1 and k > 2 the
    connection is diagonal and alpha is the unique one-form making
    T(V(t), V'(t)) proportional to V(t) for all t; it is recovered by
    interpolating the bracket function h(t) at k+1 exact rational nodes,
    with the degree bound checked at one extra node.  For k = 2 the
    result is the unique torsion-free Weyl connection of the induced
    conformal Lorentzian structure.  Built once per web and tester.
    """
    return _once(web, ("connection", zero), _canonical_connection, zero)


def _canonical_connection(web: VeroneseWeb, zero: ZeroTester) -> WebConnection:
    if not is_hirota_solution(web, zero):
        raise NotAWebError("the function does not satisfy the Hirota system")
    if web.k == 2:
        return _weyl_connection(web)
    if web.k == 1:
        alpha = OneForm(
            web.coords,
            {
                "x0": neg(div(web.dw2(0, 1), web.dw(1))),
                "x1": neg(div(web.dw2(0, 1), web.dw(0))),
            },
        )
        return WebConnection(web, "diagonal", alpha=alpha)
    return _diagonal_connection(web, zero)


def _diagonal_connection(web: VeroneseWeb, zero: ZeroTester) -> WebConnection:
    basis = [ZERO if (d2 := web.dw2(j, l)) is ZERO else mul(d2, pow_int(web.dw(j), -1), pow_int(web.dw(l), -1))
             for j, l in combinations(range(web.k + 1), 2)]
    # On a web h(t) has degree at most k: interpolate it at k+1 nodes and
    # check the bound at one more, trying a second node family once.
    for start in (0, 101):
        check, alpha = _diagonal_tables(web.t_params, start)
        if zero.verdict(_bracket_sum(check, basis)) is Verdict.ZERO:
            break
    else:
        raise InterpolationError("bracket function h(t) violates its degree bound")
    comps = {f"x{j}": mul(web.dw(j), _bracket_sum(row, basis)) for j, row in enumerate(alpha)}
    return WebConnection(web, "diagonal", alpha=OneForm(web.coords, comps))


def torsion(conn: WebConnection) -> dict[tuple[str, str], VectorField]:
    """T(d/dx_a, d/dx_b) for a < b, as vector fields."""
    web = conn.web
    out = {}
    coords = web.coords
    for ia, a in enumerate(coords):
        for b in coords[ia + 1:]:
            comps = {c: sub(conn.christoffel(a, b, c), conn.christoffel(b, a, c)) for c in coords}
            out[(a, b)] = VectorField(coords, comps)
    return out


def flatness_verdict(web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER) -> bool:
    """True iff the canonical connection of the web is torsion-free (k > 2).

    Equivalent to d/dx_i (dw/dx_j / dw/dx_l) = 0 for all i outside
    {j, l}, i.e. to w being equivalent to an additively separable
    function of the coordinates.
    """
    if web.k <= 2:
        raise WebError("flatness via torsion of the canonical connection needs k > 2")
    conn = canonical_connection(web, zero)
    return all(f.is_zero_field(zero) for f in torsion(conn).values())


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


def _paraconformal_christoffels(
    web: VeroneseWeb,
    nc: NullCurve,
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
    beta0, beta1, beta2 = betas
    psi: dict[tuple[int, int], OneForm] = {}
    for i in range(k + 1):
        psi[(i, i)] = alpha0.plus(beta1.scaled(rational(i)))
        if i >= 1:
            psi[(i, i - 1)] = beta2.scaled(rational(i - 1 - k))
        if i + 1 <= k:
            psi[(i, i + 1)] = beta0.scaled(rational(i + 1))

    rinv = _null_dual(web.t_params)
    # d/dx_b = sum_i xi[b][i] V_i with xi[b][i] = dw/dx_b * rinv[b][i]
    xi = [[mul(web.dw(b), rational(rinv[b][i])) for i in range(k + 1)] for b in range(k + 1)]

    table: dict[tuple[str, str, str], Expr] = {}
    coords = web.coords
    for a_i, a in enumerate(coords):
        for b_i, b in enumerate(coords):
            comp_terms: dict[str, list[Expr]] = {c: [] for c in coords}
            for i in range(k + 1):
                # transport term: d/dx_a (xi) V_i
                dxi = differentiate(xi[b_i][i], a)
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
                    coeff = mul(xi[b_i][i], scal)
                    for c, vmc in nc.fields[m].comps.items():
                        comp_terms[c].append(mul(coeff, vmc))
            for c, terms in comp_terms.items():
                val = add_iter(terms)
                if val is not ZERO:
                    table[(a, b, c)] = val
    return table


def _weyl_connection(web: VeroneseWeb) -> WebConnection:
    # alpha_tilde carries a -2 f omega_1 counterterm relative to the bare
    # cyclic-sum formula: the t-free part of alpha(t) depends on the
    # normalisation of V(t), and ours is pinned by omega(s)(V(t)) = (s-t)^2.
    nc = null_curve(web)
    f = _weyl_scalar_f(web)
    omegas = omega_coefficient_forms(web)
    alpha_tilde = _weyl_alpha_tilde(web).plus(omegas[1].scaled(mul(rational(-2), f)))
    betas = [om.scaled(f) for om in omegas]
    table = _paraconformal_christoffels(web, nc, alpha_tilde, betas)
    return WebConnection(
        web, "weyl", alpha=None, f=f, alpha_tilde=alpha_tilde, christoffel_table=table
    )


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


def _metric_comp(g: dict[tuple[str, str], Expr], c: str, d: str) -> Expr:
    if (c, d) in g:
        return g[(c, d)]
    return g.get((d, c), ZERO)


def weyl_form_from_connection(
    web: VeroneseWeb,
    conn: WebConnection,
    g: dict[tuple[str, str], Expr] | None = None,
) -> OneForm:
    """The one-form phi with nabla g = phi (x) g, extracted componentwise."""
    if g is None:
        g = conformal_metric(web)
    coords = web.coords
    pivot = ("x0", "x0")
    comps = {}
    for a in coords:
        ng = _covariant_metric_derivative(web, conn, g, a, *pivot)
        comps[a] = div(ng, _metric_comp(g, *pivot))
    return OneForm(coords, comps)


def _covariant_metric_derivative(web, conn, g, a: str, b: str, c: str) -> Expr:
    minus = []
    for m in web.coords:
        gb = conn.christoffel(a, b, m)
        if gb is not ZERO:
            minus.append(mul(gb, _metric_comp(g, m, c)))
        gc = conn.christoffel(a, c, m)
        if gc is not ZERO:
            minus.append(mul(gc, _metric_comp(g, b, m)))
    return add_iter([differentiate(_metric_comp(g, b, c), a)], minus)


def weyl_compatibility_residuals(
    web: VeroneseWeb,
    conn: WebConnection,
    g: dict[tuple[str, str], Expr] | None = None,
    phi: OneForm | None = None,
    zero: ZeroTester = DEFAULT_TESTER,
) -> dict[tuple[str, str, str], tuple[Expr, Verdict]]:
    """Residuals (nabla g - phi (x) g)_{a;bc} with verdicts."""
    if g is None:
        g = conformal_metric(web)
    if phi is None:
        phi = weyl_form_from_connection(web, conn, g)
    out = {}
    for a in web.coords:
        for bi, b in enumerate(web.coords):
            for c in web.coords[bi:]:
                e = sub(
                    _covariant_metric_derivative(web, conn, g, a, b, c),
                    mul(phi.comp(a), _metric_comp(g, b, c)),
                )
                out[(a, b, c)] = (e, zero.verdict(e))
    return out


# ---------------------------------------------------------------------------
# Ricci curvature

def ricci_tensor(conn: WebConnection) -> dict[tuple[str, str], Expr]:
    """Ric(Y, Z) = trace(X -> R(X, Y) Z) of a web connection, componentwise."""
    web = conn.web
    coords = web.coords
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


def _base_point_values(rng: random.Random, symbols, evaluate):
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
    raise WebError("could not sample a pole-free base point")


def ricci_null_residuals(web: VeroneseWeb, conn: WebConnection, seed: int = 0) -> list[float]:
    """|Ric(V(t), V(t))| at the 2k+1 spectral nodes t and at four random
    base points (small rationals, resampled on poles).  All values should
    sit at numerical zero for a genuine web.  The report samples only the
    k = 2 Weyl connection: for a diagonal connection Ric is antisymmetric,
    so its maximum is exactly 0.0.
    """
    k = web.k
    ric = ricci_tensor(conn)
    nc = null_curve(web)
    tvals = _spectral_nodes(web.t_params, 2 * k + 1)
    rng = random.Random(seed)
    symbols = set()
    for e in ric.values():
        symbols.update(free_symbols(e))
    for f in nc.fields:
        for e in f.comps.values():
            symbols.update(free_symbols(e))
    symbols = sorted(symbols, key=lambda s: s.key)

    def evaluate(env):
        # One memo for the point: the components share most of their nodes.
        memo: dict = {}
        ric_num = {key: float(eval_numeric(e, env, memo)) for key, e in ric.items()}
        v_num = {
            i: {c: float(eval_numeric(e, env, memo)) for c, e in nc.fields[i].comps.items()}
            for i in range(k + 1)
        }
        return ric_num, v_num

    out = []
    for _ in range(4):
        ric_num, v_num = _base_point_values(rng, symbols, evaluate)
        for tval in tvals:
            t = float(tval)
            vt = {c: 0.0 for c in web.coords}
            for i in range(k + 1):
                for c, val in v_num[i].items():
                    vt[c] += t ** i * val
            acc = 0.0
            for (b, c), val in ric_num.items():
                acc += val * vt[b] * vt[c]
            out.append(abs(acc))
    return out


# ---------------------------------------------------------------------------
# Bryant forms (k = 3)

@dataclass(frozen=True)
class BryantForms:
    """Data of the unique torsion-free paraconformal connection at k = 3.

    c[(i, j, l)] are the structure functions [V_i, V_j] = sum_l c V_l in
    the null frame; eta is the frame dual to (V_0..V_3); the one-forms
    beta0, beta1, beta2 and alpha satisfy nabla V(t) = (alpha - 3 t
    beta2) V(t) + (beta0 + t beta1 + t^2 beta2) V'(t) with vanishing
    torsion.
    """

    web: VeroneseWeb
    c: dict[tuple[int, int, int], Expr]
    eta: tuple[OneForm, ...]
    beta0: OneForm
    beta1: OneForm
    beta2: OneForm
    alpha: OneForm
    christoffel_table: dict[tuple[str, str, str], Expr]

    def betas(self) -> list[OneForm]:
        return [self.beta0, self.beta1, self.beta2]


def bryant_forms(web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER) -> BryantForms:
    """Structure functions and connection forms of the Bryant connection."""
    if web.k != 3:
        raise WebError("the Bryant connection construction is the k = 3 case")
    if not is_hirota_solution(web, zero):
        raise NotAWebError("the function does not satisfy the Hirota system")
    nc = null_curve(web)
    rinv = _null_dual(web.t_params)
    # eta_l = sum_j dw/dx_j rinv[j][l] dx_j  (dual to the V-frame)
    eta = tuple(
        OneForm(web.coords, {f"x{j}": mul(web.dw(j), rational(row[l])) for j, row in enumerate(rinv) if row[l]})
        for l in range(4)
    )
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
    table = _paraconformal_christoffels(web, nc, alpha, [beta0, beta1, beta2])
    return BryantForms(web, c, eta, beta0, beta1, beta2, alpha, table)


def bryant_torsion_residuals(
    bf: BryantForms, zero: ZeroTester = DEFAULT_TESTER
) -> dict[tuple[str, str, str], tuple[Expr, Verdict]]:
    """Torsion components of the Bryant connection in coordinates."""
    conn = WebConnection(bf.web, "bryant", christoffel_table=bf.christoffel_table)
    out = {}
    for (a, b), fieldv in torsion(conn).items():
        for cname, e in fieldv.comps.items():
            out[(a, b, cname)] = (e, zero.verdict(e))
    return out


# ---------------------------------------------------------------------------
# Zakharevich criterion

def zakharevich_verdict(web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER) -> bool:
    """Decide integrability: omega(t) ^ d omega(t) = 0 at k+3 pairwise
    distinct values t outside the spectral set (inside it the condition
    is void).  There, for a < b < c, exactly

        (omega ^ d omega)_{abc}(t) = P(t)^2 (t - t_{k+1}) H_{abc}
                                     / ((t - t_a)(t - t_b)(t - t_c)),

    with P(t) = prod_{j <= k} (t - t_j) and H the Hirota residuals.  The
    factor is a nonzero rational, so the verdict is read from H.
    """
    return is_hirota_solution(web, zero)
