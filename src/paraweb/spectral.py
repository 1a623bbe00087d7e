"""Rational tables of the spectral constants t_0..t_{k+1} of a web, each
built in integers from the leave-one-out products of ``_leave_one_out``."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, islice
from math import comb, lcm
from operator import mul


def _leave_one_out(roots) -> tuple[list[list[int]], list[Fraction]]:
    """(polys, values) for rationals R_l = a_l / q_l in lowest terms:
    polys[j] holds the ascending integer coefficients of P_j(S) =
    prod_{l != j} (q_l S - a_l), whose leading one is prod_{l != j} q_l,
    and values[j] is prod_{l != j} (R_j - R_l).  One synthetic division of
    the full product by (q_j S - a_j) gives P_j and, by Horner's rule in
    the same pass, q_j^n P_j(R_j) with n = len(roots) - 1."""
    pairs = [(r.numerator, r.denominator) for r in roots]
    full = [1]
    for a, q in pairs:
        full = [q * hi - a * lo for lo, hi in zip(full + [0], [0] + full)]
    polys, values = [], []
    for a, q in pairs:
        b, v, qn = [full[-1] // q], full[-1] // q, 1
        for c in full[-2:0:-1]:
            b.append((c + a * b[-1]) // q)
            qn *= q
            v = v * a + b[-1] * qn
        polys.append(b[::-1])
        values.append(Fraction(v, qn * b[0]))
    return polys, values


def _omega_table(t: tuple[Fraction, ...]) -> list[list[Fraction]]:
    """W[m][j]: omega_m = sum_j W[m][j] dw/dx_j dx_j, where omega(t) has the
    x_j coefficient (t_{k+1} - t_j) prod_{l <= k, l != j} (t - t_l)."""
    rows = [(t[-1] - tj, p) for tj, p in zip(t, _leave_one_out(t[:-1])[0])]
    return [[f * Fraction(p[m], p[-1]) for f, p in rows] for m in range(len(t) - 1)]


def _null_coefficients(t: tuple[Fraction, ...]) -> list[list[Fraction]]:
    """r[i][j], V_i's coefficient of e_j = (dw/dx_j)^-1 d/dx_j: c_j(s) = sum_i s^i r[i][j]
    = (t_j - s)^k / den_j, with den_j = -prod_{l != j} (t_j - t_l) over all k + 2 constants."""
    k = len(t) - 2
    gaps = _leave_one_out(t)[1]
    return [[-(-1) ** i * comb(k, i) * tj ** (k - i) / g for tj, g in zip(t[:-1], gaps)] for i in range(k + 1)]


def _spectral_nodes(t: tuple[Fraction, ...], n: int) -> list[int]:
    """The first n non-negative integers outside the spectral set t."""
    return list(islice((m for m in count() if m not in t), n))


def _bracket_h(t: tuple[Fraction, ...], nodes) -> tuple[list[Fraction], list[list[int]]]:
    """(scales, rows) with H_jl(s) = scales[p] rows[n][p] at s = nodes[n], p = (j, l) in
    ``combinations(range(k + 1), 2)``: [V(s), V'(s)] = h(s) V'(s) mod V(s) with h(s) =
    sum H_jl(s) b_jl, and H_jl = -D_jl (q_j - q_l) / k! (README) is (t_j - t_l)^2
    (t_j - s)^(k-1) (t_l - s)^(k-1) (T - t_j - t_l - k s) / (den_j den_l), T = sum(t)."""
    k = len(t) - 2
    gaps = _leave_one_out(t)[1]
    rho = lcm(*(s.denominator for s in nodes))
    pairs, total = list(combinations(range(k + 1), 2)), sum(t)
    ends = [total - t[j] - t[l] for j, l in pairs]
    scales = [(t[j] - t[l]) ** 2 / (gaps[j] * gaps[l] * e.denominator * rho
                                    * (t[j].denominator * t[l].denominator * rho * rho) ** (k - 1))
              for (j, l), e in zip(pairs, ends)]
    sigmas = [s.numerator * (rho // s.denominator) for s in nodes]
    gs = [[(tj.numerator * rho - tj.denominator * sg) ** (k - 1) for tj in t[:-1]] for sg in sigmas]
    return scales, [[g[j] * g[l] * (e.numerator * rho - k * sg * e.denominator) for (j, l), e in zip(pairs, ends)]
                    for sg, g in zip(sigmas, gs)]


def _matmul(rows, cols) -> list[list[int]]:
    cols = list(zip(*cols))
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


@lru_cache(maxsize=32)
def _diagonal_tables(t: tuple[Fraction, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """alpha, coefficients over the b_jl of ``_bracket_h``: alpha[j] = alpha_j / (dw/dx_j)
    = (N^-1 h)_j with N[n][j] = c_j(s_n) at the first k + 1 nodes outside t, which
    determine h, a polynomial of degree at most k on a web.  N^-1 = D L: D[j][i]
    = (-1)^i W[k - i][j] / binom(k, i), W of ``_omega_table``, is the null dual (the coframe
    of ``webs.NullCurve``), L[i][n] the s^i coefficient of node n's Lagrange basis polynomial.
    D, L and the H rows are integer matrices between rational row or column scales."""
    k = len(t) - 2
    nodes = _spectral_nodes(t, k + 1)
    lagrange, spans = _leave_one_out(nodes)
    big = lcm(*map(int, spans))
    scales, hs = _bracket_h(t, nodes)
    # D[j][i] = (t_{k+1} - t_j) (-1)^i P_j[k - i] / (P_j[k] binom(k, i)) over t_0..t_k
    polys = _leave_one_out(t[:-1])[0]
    c = lcm(*(comb(k, i) for i in range(k + 1)))
    interp = [[(-1) ** i * c // comb(k, i) * p[i] * (big // v) for p, v in zip(lagrange, spans)] for i in range(k + 1)]
    alpha = _matmul(_matmul([p[::-1] for p in polys], interp), hs)
    rowscales = [(t[-1] - tj) / (p[-1] * c * big) for tj, p in zip(t, polys)]
    return tuple(tuple(f * h * x for h, x in zip(scales, row)) for f, row in zip(rowscales, alpha))
