"""Web objects that only tests use: omega(t), the Lax tuple, the null
curve's coefficient matrix, the Ricci tensor and its null contraction,
a base-point sampler, and the bi-Hamiltonian pencil with its Schouten
bracket.

Pi(t) = sum_i L_i(t) ^ d/dy_i lives on the extended space with
coordinates x_0..x_k, y_1..y_k.  Reports decide [Pi(t), Pi(t)] = 0 from
the Lax residuals: the only components that can be nonzero are
(x_a, y_i, y_j) = 2 [L_i(t), L_j(t)]^{x_a}, and the bracket is bilinear,
so each is 2 sum_d t^d lax[i,j;x_a;t^d].  The functions here build the
bracket from its coordinate definition instead, so that tests can check
that reading.

Reports print Ric(V(t), V(t)) as 0.0 on every Hirota solution without
building a Ricci tensor; ``ricci_null_value`` builds it here, so that
tests can decide the identity exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from paraweb.expr import RAT, ZERO, Expr, add_iter, differentiate, eval_numeric, free_symbols, mul, neg, rational
from paraweb.jet import OneForm, VectorField
from paraweb.webs import (
    NullCurve,
    VeroneseWeb,
    WebConnection,
    _lax_pencil,
    _spectral_at,
    null_curve,
    omega_coefficient_forms,
)
from paraweb.zerotest import _pole_free

# Five distinct values of t outside the default spectral set (0, 1, ...)
# and outside T2 = (-7/2, 1/3, 2, 9/5) of the report pins: Ric(V(t), V(t))
# is a polynomial of degree at most 4 in t when k = 2, so it vanishes for
# every t exactly when it vanishes at these five.
RICCI_NULL_NODES = tuple(Fraction(n, 3) for n in (-4, -1, 2, 5, 7))


def omega_at(web: VeroneseWeb, tval: Fraction, order: int = 0) -> OneForm:
    """omega(t), or its order-th t-derivative, at an exact rational t."""
    return _spectral_at(omega_coefficient_forms(web), tval, order)


def lax_tuple(web: VeroneseWeb, tval: Fraction) -> list[VectorField]:
    """L_1(t)..L_k(t), tangent to the web foliation at spectral value t."""
    t = rational(Fraction(tval))
    return [base.plus(direction.scaled(t)) for base, direction in _lax_pencil(web)]


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


def ricci_tensor(conn: WebConnection) -> dict[tuple[str, str], Expr]:
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


def ricci_null_value(conn: WebConnection, ric: dict[tuple[str, str], Expr], tval: Fraction) -> Expr:
    """Ric(V(t), V(t)) at an exact rational t, as one expression, with
    ``ric`` the ``ricci_tensor`` of ``conn``."""
    v = null_curve(conn.web).at(tval)
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
