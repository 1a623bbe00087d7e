"""The bi-Hamiltonian pencil of a web and its Schouten bracket, for tests.

Pi(t) = sum_i L_i(t) ^ d/dy_i lives on the extended space with
coordinates x_0..x_k, y_1..y_k.  Reports decide [Pi(t), Pi(t)] = 0 from
the Lax residuals: the only components that can be nonzero are
(x_a, y_i, y_j) = 2 [L_i(t), L_j(t)]^{x_a}, and the bracket is bilinear,
so each is 2 sum_d t^d lax[i,j;x_a;t^d].  The functions here build the
bracket from its coordinate definition instead, so that tests can check
that reading.
"""

from __future__ import annotations

import random
from fractions import Fraction

from paraweb.expr import ZERO, Expr, add_iter, differentiate, eval_numeric, free_symbols, mul, neg, rational
from paraweb.webs import VeroneseWeb, _base_point_values, lax_tuple


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
        vals = _base_point_values(rng, symbols, evaluate)
        out.extend(vals if vals else [0.0])
    return out
