"""Shared fixtures: the seeded web corpus, numeric helpers, and the
checks ``expand``, ``lax_commutes``, ``zakharevich_oracle`` and
``dual_coframe_oracle`` that only tests use."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from paraweb.expr import (
    ADD,
    FUN,
    ONE,
    OPAQUE,
    POW,
    RAT,
    SYM,
    ZERO,
    Expr,
    add_iter,
    eval_numeric,
    free_symbols,
    fun,
    mul,
    pow_int,
    sub,
)
from paraweb.jet import OneForm, VectorField
from paraweb.report import ProblemSpec, analyze_web
from paraweb.spectral import _spectral_nodes
from paraweb.webs import VeroneseWeb
from paraweb.zerotest import Verdict, ZeroTester, _pole_free

from oracles import DEFAULT_TESTER, ThreeForm, exterior_derivative, lax_commutator_residuals, omega_at, wedge3

# Non-flat exact Hirota solutions.  With the default spectral constants
# (0, 1, ..., k+1) the two-exponential ansatz
#     w = exp(x1 + ... + xk) + exp(x0 + m1 x1 + ... + mk xk)
# solves the Hirota system iff a~_i (m_i - 1) is the same for all i,
# where a~_i = t_i / (t_{k+1} - t_i); the exponent vectors below use the
# smallest integer solutions.  They are genuinely non-flat: the second
# exponent is not supported on a single coordinate, so grad(w) is not
# proportional to a vector of single-variable functions.
NONFLAT_W = {
    2: "exp(x1+x2) + exp(x0+5*x1+2*x2)",
    3: "exp(x1+x2+x3) + exp(x0+10*x1+4*x2+2*x3)",
    4: "exp(x1+x2+x3+x4) + exp(x0+49*x1+19*x2+9*x3+4*x4)",
}
# The nonflat k = 5 web of the benchmark's web-ladder, outside the corpus.
NONFLAT_W5 = "exp(x1+x2+x3+x4+x5) + exp(x0+51*x1+21*x2+11*x3+6*x4+3*x5)"
# The same ansatz at k = 6..8, outside the corpus: with t_i = i the rule
# reads m_i - 1 = c (k + 1 - i) / i, for c = 60, 105 and 280.
NONFLAT_HIGH_W = {
    6: "exp(x1+x2+x3+x4+x5+x6) + exp(x0+361*x1+151*x2+81*x3+46*x4+25*x5+11*x6)",
    7: "exp(x1+x2+x3+x4+x5+x6+x7) + exp(x0+736*x1+316*x2+176*x3+106*x4+64*x5+36*x6+16*x7)",
    8: "exp(x1+x2+x3+x4+x5+x6+x7+x8)"
       " + exp(x0+2241*x1+981*x2+561*x3+351*x4+225*x5+141*x6+81*x7+36*x8)",
}
# NONFLAT_W[3] under x_i -> ln x_i, which keeps the Hirota system (each
# term of a triple gains the factor 1/(x_i x_j x_l)): a polynomial web.
NONFLAT_POLY_W3 = "x1*x2*x3 + x0*x1^10*x2^4*x3^2"

SEPARABLE_W = {
    2: ["x0+x1+x2", "x0 + x1^2/2 + x2"],
    3: ["x0+x1+x2+x3", "2*x0 + x1 + x2^2/2 + x3"],
    4: ["x0+x1+x2+x3+x4"],
}


def random_polynomial_w(k: int, rng: random.Random) -> str:
    """A random inhomogeneous quadratic with a full linear part.

    The linear part keeps every dw/dx_i generically nonzero, and at
    least one off-diagonal quadratic term guarantees the function is not
    additively separable (generic cross terms never satisfy the Hirota
    system).
    """
    terms = [f"x{i}" for i in range(k + 1)]
    i = rng.randint(0, k - 1)
    j = rng.randint(i + 1, k)
    terms.append(f"{rng.randint(1, 3)}*x{i}*x{j}")
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, k)
        j = rng.randint(0, k)
        terms.append(f"{rng.randint(1, 3)}*x{i}*x{j}")
    return " + ".join(terms)


def seeded_corpus() -> list[tuple[int, str, str]]:
    """(k, w, tag) with tag in {separable, nonflat, random}; 20 random
    polynomial entries plus the seeded solutions."""
    rng = random.Random(20240811)
    corpus: list[tuple[int, str, str]] = []
    for k, ws in SEPARABLE_W.items():
        for w in ws:
            corpus.append((k, w, "separable"))
    for k, w in NONFLAT_W.items():
        corpus.append((k, w, "nonflat"))
    for k, count in ((2, 7), (3, 7), (4, 6)):
        for _ in range(count):
            corpus.append((k, random_polynomial_w(k, rng), "random"))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return seeded_corpus()


@pytest.fixture(scope="session")
def tester():
    return ZeroTester()


@pytest.fixture(scope="session")
def corpus_reports(corpus):
    """The report of every corpus entry, in corpus order."""
    return [analyze_web(ProblemSpec.from_dict({"kind": "web", "k": k, "w": w}))
            for k, w, _tag in corpus]


def sample_point(web: VeroneseWeb, exprs, rng: random.Random, scale: int = 4):
    """A pole-free random rational assignment for all symbols in exprs.

    Only the errors the engine resamples on (poles, domain errors,
    overflow) draw another point; anything else is a fault and escapes.
    """
    symbols = set()
    for e in exprs:
        symbols.update(free_symbols(e))
    symbols = sorted(symbols, key=lambda s: s.key)

    def draw():
        return {s: Fraction(rng.randint(-scale, scale), rng.randint(scale, 3 * scale)) for s in symbols}

    def evaluate(env):
        for e in exprs:
            eval_numeric(e, env)
        return env

    env = _pole_free(draw, evaluate, 80)
    if env is None:
        raise RuntimeError("could not find a pole-free sample point")
    return env


def expand(e: Expr) -> Expr:
    """Fully distribute products and positive integer powers over sums.

    Canonical form deliberately leaves products of sums alone; expansion
    is the explicit (potentially exponential) normalisation used when an
    identity is expected to cancel exactly.  Negative powers of sums are
    left as atoms.
    """
    memo: dict[int, Expr] = {}

    def walk(n: Expr) -> Expr:
        got = memo.get(n.uid)
        if got is not None:
            return got
        k = n.kind
        if k in (RAT, SYM, OPAQUE):
            out = n
        elif k == FUN:
            out = fun(n.payload, walk(n.children[0]))
        elif k == ADD:
            out = add_iter(walk(c) for c in n.children)
        elif k == POW:
            base = walk(n.children[0])
            m = n.payload
            if m > 1 and base.kind == ADD:
                out = base
                for _ in range(m - 1):
                    out = _distribute(out, base)
            else:
                out = pow_int(base, m)
        else:  # MUL
            out = ONE
            for c in n.children:
                out = _distribute(out, walk(c))
        memo[n.uid] = out
        return out

    return walk(e)


def _distribute(a: Expr, b: Expr) -> Expr:
    ta = a.children if a.kind == ADD else (a,)
    tb = b.children if b.kind == ADD else (b,)
    if len(ta) == 1 and len(tb) == 1:
        return mul(a, b)
    return add_iter(mul(u, v) for u in ta for v in tb)


def lax_commutes(web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER) -> bool:
    """Every coefficient of every [L_i(t), L_j(t)] zero-tested by ``zero``
    (reports read them from the Hirota residuals instead)."""
    return all(zero.verdict(e) is Verdict.ZERO for e in lax_commutator_residuals(web).values())


def omega_wedge_d_omega(web: VeroneseWeb, tval: Fraction) -> ThreeForm:
    """omega(t) ^ d omega(t) at an exact rational t, built from its definition."""
    om = omega_at(web, tval)
    return wedge3(om, exterior_derivative(om))


def zakharevich_oracle(web: VeroneseWeb, zero: ZeroTester = DEFAULT_TESTER) -> bool:
    """The Zakharevich criterion by sampling: every component of
    omega(t) ^ d omega(t) zero-tested at k+3 values outside the spectral set."""
    return all(
        zero.verdict(e) is Verdict.ZERO
        for tval in _spectral_nodes(web.t_params, web.k + 3)
        for e in omega_wedge_d_omega(web, tval).comps.values()
    )


def dual_coframe_oracle(fields: list[VectorField], coords, zero: ZeroTester = DEFAULT_TESTER) -> list[OneForm]:
    """One-forms theta_i with theta_i(fields[j]) = delta_ij on the span of
    ``coords``, by Gauss-Jordan elimination of the component matrix
    A[i][c] = fields[i]^c; each column's pivot is its first remaining
    entry that the zero test calls nonzero.  theta_i^c = (A^-1)[c][i]."""
    n = len(fields)
    a = [[f.comp(c) for c in coords] for f in fields]
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if zero.verdict(a[r][col]) is Verdict.NONZERO)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = pow_int(a[col][col], -1)
        a[col] = [mul(scale, v) for v in a[col]]
        inv[col] = [mul(scale, v) for v in inv[col]]
        for r in range(n):
            factor = a[r][col]
            if r != col and factor is not ZERO:
                a[r] = [sub(v, mul(factor, p)) for v, p in zip(a[r], a[col])]
                inv[r] = [sub(v, mul(factor, p)) for v, p in zip(inv[r], inv[col])]
    return [OneForm(fields[0].frame, {c: inv[ci][i] for ci, c in enumerate(coords)}) for i in range(n)]
